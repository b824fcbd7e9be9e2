// Per-lane shuffle kv-store (src/core/kv_store): property tests against a
// std::map oracle, grow/rehash edge cases, and the determinism argument —
// a fixed lane-order merge of any distribution of the input equals the
// single-lane result bit-for-bit. Plus the wordcount map (allocation-free
// tokenizer into per-lane stores) agreeing with the istringstream serial
// oracle on whitespace-rich corpora, at every thread count and NUMA mode.
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/wordcount.hpp"
#include "common/rng.hpp"
#include "core/kv_store.hpp"
#include "exec/thread_pool.hpp"
#include "numa/topology.hpp"

namespace {

using namespace prs;

struct NumaGuard {
  ~NumaGuard() {
    numa::clear_enabled_override();
    numa::clear_topology_override();
    exec::ThreadPool::instance().configure(0);
  }
};

/// Serializes a merged map to bytes; memcmp equality below is the
/// "bit-for-bit" claim, not just logical map equality.
std::vector<unsigned char> serialize(const std::map<std::string, long>& m) {
  std::vector<unsigned char> out;
  for (const auto& [k, v] : m) {
    out.insert(out.end(), k.begin(), k.end());
    out.push_back('\0');
    const auto* vb = reinterpret_cast<const unsigned char*>(&v);
    out.insert(out.end(), vb, vb + sizeof(v));
  }
  return out;
}

std::map<std::string, long> store_as_map(const core::LaneKvStore& s) {
  std::map<std::string, long> out;
  s.for_each([&](const std::string& k, long v) { out[k] += v; });
  return out;
}

TEST(LaneKvStore, BasicAddAndAccumulate) {
  core::LaneKvStore s;
  s.add("alpha", 1);
  s.add("beta", 2);
  s.add("alpha", 3);
  EXPECT_EQ(s.size(), 2u);
  const auto m = store_as_map(s);
  EXPECT_EQ(m.at("alpha"), 4);
  EXPECT_EQ(m.at("beta"), 2);
}

TEST(LaneKvStore, HandlesEmptyAndBinaryKeys) {
  core::LaneKvStore s(8);
  s.add("", 7);
  s.add(std::string_view("\0\x01", 2), 1);
  s.add(std::string_view("\0\x02", 2), 1);
  s.add("", 3);
  const auto m = store_as_map(s);
  EXPECT_EQ(m.at(""), 10);
  EXPECT_EQ(m.size(), 3u);
}

TEST(LaneKvStore, GrowsFromMinimumCapacityAndKeepsEverything) {
  core::LaneKvStore s(1);  // rounds up to the 8-slot minimum
  EXPECT_EQ(s.capacity(), 8u);
  std::map<std::string, long> oracle;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "k" + std::to_string(i % 1250);
    s.add(key, i);
    oracle[key] += i;
  }
  EXPECT_GT(s.grow_count(), 5u);  // 8 -> beyond 1250*10/7 slots
  EXPECT_EQ(s.size(), 1250u);
  // Power-of-two capacity below the 70% load ceiling.
  EXPECT_EQ(s.capacity() & (s.capacity() - 1), 0u);
  EXPECT_GT(s.capacity() * 7, s.size() * 10);
  EXPECT_EQ(store_as_map(s), oracle);
}

TEST(LaneKvStore, RandomCorporaMatchMapOracle) {
  Rng rng(1234);
  for (int round = 0; round < 20; ++round) {
    core::LaneKvStore s(8);
    std::map<std::string, long> oracle;
    const int n = 200 + static_cast<int>(rng.uniform() * 3000);
    for (int i = 0; i < n; ++i) {
      // Short keys from a small alphabet: dense collisions + rehash churn.
      const int len = static_cast<int>(rng.uniform() * 6);
      std::string key;
      for (int c = 0; c < len; ++c) {
        key += static_cast<char>('a' + static_cast<int>(rng.uniform() * 4));
      }
      const long delta = static_cast<long>(rng.uniform() * 100) - 50;
      s.add(key, delta);
      oracle[key] += delta;
    }
    ASSERT_EQ(store_as_map(s), oracle) << "round " << round;
  }
}

TEST(LaneKvStore, FixedOrderMergeEqualsSingleLaneBitForBit) {
  Rng rng(99);
  // One corpus of (word, count) increments...
  std::vector<std::pair<std::string, long>> events;
  for (int i = 0; i < 8000; ++i) {
    events.emplace_back(
        "w" + std::to_string(static_cast<int>(rng.uniform() * 900)), 1);
  }
  // ...counted in a single lane (the reference)...
  std::vector<core::LaneKvStore> single(1);
  for (const auto& [w, c] : events) single[0].add(w, c);
  const auto ref = serialize(core::merge_lane_stores(single));

  // ...must merge bit-for-bit from ANY distribution over any lane count.
  for (int lanes : {2, 3, 7, 16}) {
    std::vector<core::LaneKvStore> stores(static_cast<std::size_t>(lanes));
    std::size_t i = 0;
    for (const auto& [w, c] : events) {
      // Adversarial distribution: round-robin + random jumps.
      const auto lane =
          (i++ + static_cast<std::size_t>(rng.uniform() * lanes)) %
          static_cast<std::size_t>(lanes);
      stores[lane].add(w, c);
    }
    const auto got = serialize(core::merge_lane_stores(stores));
    ASSERT_EQ(got.size(), ref.size()) << "lanes=" << lanes;
    ASSERT_EQ(std::memcmp(got.data(), ref.data(), ref.size()), 0)
        << "lanes=" << lanes;
  }
}

// -- tokenizer equivalence through the app -----------------------------------

/// Corpus with every C-locale whitespace separator, empty lines, leading/
/// trailing runs — the shapes where a hand-rolled tokenizer diverges from
/// `istream >> word` if it gets the space set wrong.
apps::Corpus nasty_corpus() {
  return apps::Corpus{
      "plain words here",
      "  leading and   multiple   spaces  ",
      "tabs\tbetween\twords\t",
      "mixed \t\v\f\r separators\r\n",
      "",
      "\t\v\f\r ",
      "one",
      "repeated repeated repeated",
      "x",
  };
}

TEST(WordcountShuffle, PerLaneAndReducePathsAgreeOnNastyWhitespace) {
  NumaGuard guard;
  exec::ThreadPool::instance().configure(4);
  numa::set_topology(numa::Topology::uniform(2, 2));
  auto corpus = std::make_shared<const apps::Corpus>(nasty_corpus());
  const auto serial = apps::wordcount_serial(*corpus);

  auto run_map = [&] {
    auto spec = apps::wordcount_spec(corpus);
    core::Emitter<std::string, long> em;
    spec.cpu_map(core::InputSlice{0, corpus->size()}, em);
    std::map<std::string, long> out;
    for (const auto& [w, c] : em.pairs()) out[w] += c;
    return out;
  };

  // NUMA enablement only moves pages; the counts must match the oracle
  // (istringstream tokenizer) either way.
  numa::set_enabled(false);
  EXPECT_EQ(run_map(), serial);
  numa::set_enabled(true);
  EXPECT_EQ(run_map(), serial);
}

TEST(WordcountShuffle, RandomCorporaAgreeAcrossPathsAndThreadCounts) {
  NumaGuard guard;
  auto& pool = exec::ThreadPool::instance();
  Rng rng(5);
  auto corpus = std::make_shared<const apps::Corpus>(
      apps::generate_corpus(rng, 500, 10, 300));
  const auto serial = apps::wordcount_serial(*corpus);
  const auto ref = serialize(serial);

  for (int threads : {1, 3, 6}) {
    pool.configure(threads);
    for (const bool on : {false, true}) {
      numa::set_enabled(on);
      auto spec = apps::wordcount_spec(corpus);
      core::Emitter<std::string, long> em;
      spec.cpu_map(core::InputSlice{0, corpus->size()}, em);
      std::map<std::string, long> out;
      for (const auto& [w, c] : em.pairs()) out[w] += c;
      const auto got = serialize(out);
      ASSERT_EQ(got, ref) << "threads=" << threads << " numa=" << on;
    }
  }
}

}  // namespace
