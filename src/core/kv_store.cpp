#include "core/kv_store.hpp"

#include <utility>

#include "common/error.hpp"

namespace prs::core {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 8;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

LaneKvStore::LaneKvStore(std::size_t initial_slots) {
  slots_.resize(round_up_pow2(initial_slots));
}

void LaneKvStore::add(std::string_view key, long delta) {
  // Grow *before* inserting so the probe below always finds a free slot;
  // 70% load keeps linear-probe clusters short.
  if ((size_ + 1) * 10 >= slots_.size() * 7) grow();
  const std::uint64_t h = fnv1a(key);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (true) {
    Slot& s = slots_[i];
    if (!s.used) {
      s.key.assign(key.data(), key.size());
      s.hash = h;
      s.value = delta;
      s.used = true;
      ++size_;
      return;
    }
    if (s.hash == h && s.key == key) {
      s.value += delta;
      return;
    }
    i = (i + 1) & mask;
  }
}

void LaneKvStore::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(old.size() * 2);
  const std::size_t mask = slots_.size() - 1;
  for (Slot& s : old) {
    if (!s.used) continue;
    std::size_t i = static_cast<std::size_t>(s.hash) & mask;
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = std::move(s);
  }
  ++grows_;
}

std::map<std::string, long> merge_lane_stores(
    const std::vector<LaneKvStore>& stores) {
  std::map<std::string, long> out;
  // Ascending lane order. Integer addition is associative+commutative, so
  // the order only fixes the *procedure*; the sorted map fixes the bytes.
  for (const LaneKvStore& store : stores) {
    store.for_each([&out](const std::string& key, long value) {
      out[key] += value;
    });
  }
  return out;
}

}  // namespace prs::core
