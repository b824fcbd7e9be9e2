#include "apps/wordcount.hpp"

#include <charconv>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/calibration.hpp"
#include "core/kv_store.hpp"
#include "data/dataset.hpp"
#include "exec/parallel.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain: scanning a line is cheap (~tens of flops), so chunks
/// need many lines to amortize the hand-off.
constexpr std::size_t kMapGrain = 256;

void count_line(const std::string& line, std::map<std::string, long>& acc) {
  std::istringstream ss(line);
  std::string word;
  while (ss >> word) acc[word]++;
}

/// Exactly the C-locale whitespace set `istream >> std::string` skips —
/// the map tokenizer must agree word-for-word with count_line, the serial
/// oracle.
bool is_word_space(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' || ch == '\f' ||
         ch == '\r';
}

/// Allocation-free tokenizer for the map: splits like `ss >> word` but
/// feeds string_views straight into the store (no std::string per word,
/// no tree rebalance per count).
void count_line_fast(const std::string& line, core::LaneKvStore& store) {
  const char* p = line.data();
  const char* const end = p + line.size();
  while (p < end) {
    while (p < end && is_word_space(*p)) ++p;
    const char* const w = p;
    while (p < end && !is_word_space(*p)) ++p;
    if (p > w) store.add(std::string_view(w, static_cast<std::size_t>(p - w)), 1);
  }
}

/// Shape of the actual corpus, measured once per spec so the Eq (8) cost
/// model reflects the data really passed in — not a hardcoded
/// 10-words-per-line assumption.
struct CorpusShape {
  double line_bytes = 0.0;  // average bytes per line
  double word_len = 0.0;    // average bytes per word
};

/// Byte and word totals of a run of lines. Integer sums: any chunking of
/// the corpus adds up to the same totals.
struct ShapeCounts {
  std::size_t bytes = 0;
  std::size_t words = 0;
  std::size_t word_bytes = 0;
};

/// Lines per generate_corpus chunk.
constexpr std::size_t kCorpusGrain = 1024;

/// Host-pool grain for measure(): lines per chunk.
constexpr std::size_t kMeasureGrain = 4096;

CorpusShape measure(const Corpus& corpus) {
  const ShapeCounts c = exec::parallel_reduce(
      0, corpus.size(), kMeasureGrain, ShapeCounts{},
      [&corpus](std::size_t b, std::size_t e, ShapeCounts acc) {
        for (std::size_t i = b; i < e; ++i) {
          const std::string& line = corpus[i];
          acc.bytes += line.size();
          bool in_word = false;
          for (const char ch : line) {
            const bool space = ch == ' ' || ch == '\t';
            if (!space) {
              ++acc.word_bytes;
              if (!in_word) ++acc.words;
            }
            in_word = !space;
          }
        }
        return acc;
      },
      [](ShapeCounts a, const ShapeCounts& b) {
        a.bytes += b.bytes;
        a.words += b.words;
        a.word_bytes += b.word_bytes;
        return a;
      });
  CorpusShape s;
  const auto n = static_cast<double>(corpus.size());
  s.line_bytes = n > 0 ? static_cast<double>(c.bytes) / n : 0.0;
  s.word_len = c.words > 0 ? static_cast<double>(c.word_bytes) /
                                 static_cast<double>(c.words)
                           : 0.0;
  return s;
}

}  // namespace

Corpus generate_corpus(Rng& rng, std::size_t lines,
                       std::size_t words_per_line, std::size_t vocabulary) {
  PRS_REQUIRE(vocabulary >= 1, "vocabulary must be non-empty");
  Corpus corpus(lines);
  // "word" + the decimal id, at most as long as the largest id's.
  char digits[20];
  const std::size_t max_word =
      4 + static_cast<std::size_t>(
              std::to_chars(digits, digits + sizeof digits, vocabulary - 1).ptr -
              digits);
  // Line i draws words_per_line uniforms; each lane builds (and first
  // touches) the strings of its own chunks.
  data::generate_chunked(
      rng, lines, kCorpusGrain, words_per_line,
      [&](Rng& r, std::size_t b, std::size_t e) {
        char id_text[20];
        for (std::size_t i = b; i < e; ++i) {
          std::string& line = corpus[i];
          line.reserve(words_per_line * (max_word + 1));
          for (std::size_t w = 0; w < words_per_line; ++w) {
            // Zipf-ish: squared uniform biases toward low word ids.
            const double u = r.uniform();
            const auto id = static_cast<std::size_t>(
                u * u * static_cast<double>(vocabulary));
            if (w > 0) line += ' ';
            line += "word";
            const char* const end =
                std::to_chars(id_text, id_text + sizeof id_text,
                              std::min(id, vocabulary - 1))
                    .ptr;
            line.append(id_text, static_cast<std::size_t>(end - id_text));
          }
        }
      });
  return corpus;
}

std::map<std::string, long> wordcount_serial(const Corpus& corpus) {
  std::map<std::string, long> counts;
  for (const auto& line : corpus) count_line(line, counts);
  return counts;
}

WordCountSpec wordcount_spec(std::shared_ptr<const Corpus> corpus) {
  PRS_REQUIRE(corpus != nullptr, "spec needs a corpus");
  WordCountSpec spec;
  spec.name = "wordcount";
  spec.cpu_map = [corpus](const core::InputSlice& s,
                          core::Emitter<std::string, long>& e) {
    // Metis-style shuffle: one open-addressed store per pool lane, written
    // lock-free by its owner thread only (a thief counts stolen chunks
    // into its *own* store), then merged in ascending lane order. Counts
    // are integers, so any distribution of words over lanes merges to the
    // same sorted map — byte-identical to wordcount_serial at every thread
    // count and topology (tests/shuffle_test.cpp, tests/numa_test.cpp).
    const int lanes = exec::ThreadPool::instance().threads();
    std::vector<core::LaneKvStore> stores;
    stores.reserve(static_cast<std::size_t>(lanes));
    // Start tiny: nearly all slot pages are then allocated by grow()
    // *inside the owner lane* — first-touched on the owner's socket.
    for (int i = 0; i < lanes; ++i) stores.emplace_back(8);
    exec::parallel_for(
        s.begin, s.end, kMapGrain, [&](std::size_t b, std::size_t en) {
          core::LaneKvStore& mine = stores[static_cast<std::size_t>(
              exec::ThreadPool::current_lane())];
          for (std::size_t i = b; i < en; ++i) {
            count_line_fast((*corpus)[i], mine);
          }
        });
    for (auto& [w, c] : core::merge_lane_stores(stores)) e.emit(w, c);
  };
  spec.modeled_map = [](const core::InputSlice&,
                        core::Emitter<std::string, long>& e) {
    e.emit("word0", {});
  };
  spec.combine = [](const long& a, const long& b) { return a + b; };

  // Cost model: scanning text is ~1 flop (comparison) per byte — the
  // leftmost point of the paper's Figure 4 intensity spectrum. Byte counts
  // come from the corpus actually passed in, so Eq (8) splits stay honest
  // for corpora with other line lengths than the default generator's.
  const CorpusShape shape = measure(*corpus);
  spec.cpu_flops_per_item = shape.line_bytes;
  spec.gpu_flops_per_item = shape.line_bytes;
  spec.ai_cpu = 0.125;  // Figure 4: word count AI ~ 1/8 flop per byte
  spec.ai_gpu = 0.125;
  spec.gpu_data_cached = false;
  spec.item_bytes = shape.line_bytes;
  spec.pair_bytes = shape.word_len + 8.0;  // word text + count
  spec.reduce_flops_per_pair = 1.0;
  spec.efficiency = core::calib::kWordCount;
  return spec;
}

std::map<std::string, long> wordcount_prs(core::Cluster& cluster,
                                          std::shared_ptr<const Corpus> corpus,
                                          const core::JobConfig& cfg,
                                          core::JobStats* stats_out) {
  PRS_REQUIRE(corpus && !corpus->empty(), "corpus must be non-empty");
  WordCountSpec spec = wordcount_spec(corpus);
  auto res = core::run_job(cluster, spec, cfg, corpus->size());
  if (stats_out != nullptr) *stats_out = res.stats;
  return std::move(res.output);
}

}  // namespace prs::apps
