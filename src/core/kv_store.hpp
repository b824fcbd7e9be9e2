// Metis-style per-lane intermediate kv-store: wordcount's map-side shuffle.
//
// The Metis MapReduce runtime keeps one hash store per core: each mapper
// writes only its own store — no locks, no cache-line ping-pong, and with
// NUMA first-touch the store's pages live on the writer's socket. The
// shuffle then merges the per-core stores in a *fixed* order. This module
// is that design for wordcount's word->count shuffle:
//
//   * LaneKvStore — open-addressed, linear-probe string->long hash table.
//     Single-writer by construction: lane L owns store L and is the only
//     thread that may call add() on it (enforced by the pool's chunking,
//     checked under TSan in CI). Growing reallocates from the owner lane's
//     thread, so rehashed pages are first-touched on the owner's socket.
//
//   * merge_lane_stores — folds stores[0..n) into one sorted std::map in
//     ascending lane order. Counts are integers and addition over them is
//     associative and commutative, so *any* distribution of words across
//     lanes merges to the same bytes; the fixed order makes the procedure
//     (not just the result) deterministic. This is the determinism
//     argument of DESIGN.md §4k: byte-identical output at any thread
//     count, any topology, and NUMA on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace prs::core {

/// FNV-1a 64-bit — cheap, dependency-free, and stable across platforms
/// (the store's iteration order must not leak into results anyway).
inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

/// Open-addressed linear-probe hash store, single-writer lock-free.
/// Power-of-two capacity; grows at 70% load by doubling and rehashing
/// with the cached hash (keys are not re-scanned).
class LaneKvStore {
 public:
  /// `initial_slots` is rounded up to a power of two (minimum 8).
  explicit LaneKvStore(std::size_t initial_slots = 1024);

  /// Adds `delta` to `key`'s count, inserting the key on first sight.
  /// Owner-lane only — concurrent add() on one store is a data race.
  void add(std::string_view key, long delta);

  /// Distinct keys currently stored.
  std::size_t size() const { return size_; }
  /// Current slot count (power of two).
  std::size_t capacity() const { return slots_.size(); }
  /// Number of grow/rehash cycles since construction (test hook).
  std::size_t grow_count() const { return grows_; }

  /// Visits every (key, count) pair in unspecified (probe) order. The
  /// caller must impose its own order before results become external —
  /// merge_lane_stores does, by folding into a sorted map.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::string key;
    std::uint64_t hash = 0;
    long value = 0;
    bool used = false;
  };

  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t grows_ = 0;
};

/// Folds per-lane stores into one sorted map in ascending lane order.
/// Byte-identical to counting the same words in a single store (or a
/// single std::map) regardless of how words were distributed over lanes.
std::map<std::string, long> merge_lane_stores(
    const std::vector<LaneKvStore>& stores);

}  // namespace prs::core
