#include "exec/prefault.hpp"

#include <vector>

#include "exec/thread_pool.hpp"
#include "numa/topology.hpp"

namespace prs::exec {
namespace {

/// Chunk i touches the plan extents owned by lane i (at most one today,
/// but the loop keeps this robust to future multi-extent plans).
class PrefaultJob : public detail::ParallelJob {
 public:
  PrefaultJob(const unsigned char* base,
              std::vector<numa::PrefaultExtent> plan, std::size_t lanes)
      : ParallelJob(lanes, /*steal_allowed=*/false),
        base_(base),
        plan_(std::move(plan)) {}

  void run_chunk(std::size_t chunk) override {
    for (const numa::PrefaultExtent& e : plan_) {
      if (static_cast<std::size_t>(e.lane) != chunk) continue;
      // Volatile reads cannot be elided. Their values are dropped: a
      // shared sink written by every lane would be a data race.
      const volatile unsigned char* p = base_;
      for (std::size_t b = e.begin; b < e.end;
           b += numa::kPrefaultPageBytes) {
        (void)p[b];
      }
      if (e.end > e.begin) (void)p[e.end - 1];
    }
  }

 private:
  const unsigned char* base_;
  std::vector<numa::PrefaultExtent> plan_;
};

}  // namespace

void prefault_first_touch(const void* data, std::size_t bytes) {
  if (data == nullptr || bytes == 0) return;
  if (!numa::enabled()) return;
  // Inside a region the chunks would run inline on one lane — the plan's
  // placement promise cannot hold, so skip rather than mislead.
  if (ThreadPool::in_parallel_region()) return;
  ThreadPool& pool = ThreadPool::instance();
  const auto lanes = static_cast<std::size_t>(pool.threads());
  std::vector<numa::PrefaultExtent> plan =
      numa::plan_prefault(bytes, static_cast<int>(lanes),
                          numa::active_topology());
  if (plan.empty()) return;
  PrefaultJob job(static_cast<const unsigned char*>(data), std::move(plan),
                  lanes);
  pool.run(job);
}

}  // namespace prs::exec
