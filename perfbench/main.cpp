// prs_perfbench — wall-clock measurement driver for PRS jobs.
//
// Two modes, both driven by run.py:
//
//   prs_perfbench setup --workload W [--smoke]
//       Times one process set-up (pool start, SIMD and NUMA detection,
//       Simulator + Cluster construction) and prints it as JSON.
//
//   prs_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     [--smoke] [--out-dir D]
//       Runs jobs of workload W for about S seconds through
//       svc::run_job_spec, alternating min(4, nproc) and 1 host threads.
//       With --trace 1 a third, traced job joins the rotation: it calls
//       each layer's public functions itself and keeps wall-clock spans in
//       memory; they are written to D as a Chrome trace when the run
//       ends. Prints one JSON document with the
//       environment, the set-up time and one record per job; run.py
//       turns the records into metrics and checks the digests.
//
// The program only calls the library; inputs come from the JobSpec seed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/cmeans.hpp"
#include "apps/dgemm.hpp"
#include "apps/wordcount.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"
#include "data/dataset.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "numa/topology.hpp"
#include "simd/dispatch.hpp"
#include "simtime/simulator.hpp"
#include "svc/job_spec.hpp"
#include "svc/launcher.hpp"

#ifndef PRS_BENCH_BUILD_TYPE
#define PRS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using prs::svc::JobSpec;

const Clock::time_point g_origin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

// ---------------------------------------------------------------- JSON out

/// Minimal JSON object writer: keys in insertion order, numbers with 17
/// significant digits so no measured digit is lost.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

// --------------------------------------------------------------- workloads

/// The JobSpec of each workload. Keys not set keep the prs_run defaults:
/// delta testbed, 4 nodes, 1 GPU, static policy, stages engine.
JobSpec workload_spec(const std::string& name, bool smoke,
                      std::uint64_t seed) {
  JobSpec spec;
  spec.seed = seed;
  if (name == "cmeans_200k") {
    spec.app = "cmeans";
    spec.functional = true;
    spec.points = smoke ? 3000 : 200000;
    spec.dims = smoke ? 8 : 100;
    spec.clusters = smoke ? 4 : 10;
    spec.iterations = smoke ? 3 : 10;
  } else if (name == "dgemm_8k") {
    spec.app = "dgemm";
    spec.functional = true;
    spec.rows = smoke ? 200 : 8000;
    if (smoke) {
      spec.dims = 16;
      spec.cols = 120;
    }
  } else if (name == "wordcount_1m") {
    spec.app = "wordcount";
    spec.functional = true;
    spec.points = smoke ? 5000 : 1000000;
  } else if (name == "modeled_cmeans_16n") {
    spec.app = "cmeans";
    spec.nodes = 16;
    spec.iterations = smoke ? 5 : 100;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.validate();
  return spec;
}

std::string sizes_json(const JobSpec& s) {
  return Json()
      .str("app", s.app)
      .integer("functional", s.functional ? 1 : 0)
      .integer("nodes", static_cast<std::uint64_t>(s.nodes))
      .integer("points", s.points)
      .integer("dims", s.dims)
      .integer("clusters", static_cast<std::uint64_t>(s.clusters))
      .integer("iterations", static_cast<std::uint64_t>(s.iterations))
      .integer("rows", s.rows)
      .integer("cols", s.cols)
      .text();
}

// ------------------------------------------------------------- environment

std::string cpu_model() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

int host_threads() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 4);
}

std::string env_json(const JobSpec& spec, const std::string& workload,
                     bool smoke) {
  return Json()
      .str("workload", workload)
      .integer("seed", spec.seed)
      .integer("smoke", smoke ? 1 : 0)
      .str("cpu_model", cpu_model())
      .integer("nproc", std::thread::hardware_concurrency())
      .integer("host_threads", static_cast<std::uint64_t>(host_threads()))
      .str("simd_level", prs::simd::level_name(prs::simd::active_level()))
      .str("numa", prs::numa::enabled() ? "on" : "off")
      .str("numa_topology", prs::numa::active_topology().summary())
      .str("compiler", "g++ " __VERSION__)
      .str("build_type", PRS_BENCH_BUILD_TYPE)
      .raw("sizes", sizes_json(spec))
      .text();
}

// ------------------------------------------------------------ measurements

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minflt = 0;
  double maxrss_mb = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string writer_digest(const prs::ckpt::Writer& w) {
  return hex16(prs::ckpt::fnv1a64(w.bytes()));
}

/// Pool counter deltas over one job.
struct PoolDelta {
  prs::exec::PoolStats before = prs::exec::ThreadPool::instance().stats();

  Json& add_to(Json& j) const {
    const prs::exec::PoolStats after =
        prs::exec::ThreadPool::instance().stats();
    const auto slots = after.lane_slots - before.lane_slots;
    const auto engaged = after.lane_engagements - before.lane_engagements;
    const auto chunks = after.chunks - before.chunks;
    const auto stolen = after.stolen_chunks - before.stolen_chunks;
    return j.integer("pool_regions", after.jobs - before.jobs)
        .integer("pool_chunks", chunks)
        .num("pool_occupancy", slots > 0 ? static_cast<double>(engaged) /
                                               static_cast<double>(slots)
                                         : 0.0)
        .num("pool_steal_ratio", chunks > 0 ? static_cast<double>(stolen) /
                                                  static_cast<double>(chunks)
                                            : 0.0);
  }
};

/// A freshly built simulated cluster for one job, as the job server builds
/// one per job.
struct JobCluster {
  explicit JobCluster(const JobSpec& spec)
      : node(spec.node_config()),
        cluster(sim, spec.nodes, node),
        cfg(spec.job_config()),
        policy(prs::core::make_policy(spec.policy)) {
    cfg.policy = policy.get();
  }

  prs::sim::Simulator sim;
  prs::core::NodeConfig node;
  prs::core::Cluster cluster;
  prs::core::JobConfig cfg;
  std::unique_ptr<prs::core::SchedulePolicy> policy;
};

/// Process set-up: everything before the first job can start. The first
/// job itself still runs slower than later ones (lazy initialization); that
/// cost counts as job time, where the median over several jobs absorbs it.
double process_setup(const JobSpec& spec) {
  const double t0 = now_s();
  auto& pool = prs::exec::ThreadPool::instance();
  pool.configure(host_threads());
  // Workers start lazily; one trivial region brings them up.
  prs::exec::parallel_for(0, static_cast<std::size_t>(pool.threads()), 1,
                          [](std::size_t, std::size_t) {});
  (void)prs::simd::active_level();
  (void)prs::numa::enabled();
  (void)prs::numa::active_topology();
  JobCluster first(spec);
  return now_s() - t0;
}

/// One job through the public dispatch, timed end to end (input
/// generation, run and digest). Cluster construction is set-up, not job
/// time, and is left out.
std::string timed_job(const JobSpec& spec, int threads) {
  prs::exec::ThreadPool::instance().configure(threads);
  JobCluster jc(spec);
  prs::Rng rng(spec.seed);
  Json j;
  j.str("kind", "timed")
      .integer("threads", static_cast<std::uint64_t>(threads));
  const PoolDelta pool;
  const Usage u0 = usage_now();
  const double t0 = now_s();
  std::string digest;
  std::string error;
  double virtual_s = 0.0;
  try {
    prs::svc::LaunchOutcome out = prs::svc::run_job_spec(
        spec, jc.cluster, jc.node, jc.cfg, rng, nullptr);
    digest = out.digest;
    virtual_s = out.stats.elapsed;
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double wall = now_s() - t0;
  const Usage u1 = usage_now();
  j.num("wall_s", wall)
      .str("digest", digest)
      .str("error", error)
      .num("virtual_s", virtual_s)
      .num("user_s", u1.user_s - u0.user_s)
      .num("sys_s", u1.sys_s - u0.sys_s)
      .integer("minflt", u1.minflt - u0.minflt)
      .num("maxrss_mb", u1.maxrss_mb);
  Json counters;
  pool.add_to(counters);
  return j.raw("pool", counters.text()).text();
}

// ------------------------------------------------------------------ tracing

/// Wall-clock spans kept in memory and written once as a Chrome trace.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int job = 0;
    double start = 0.0;
    double end = 0.0;
  };

  int begin(std::string name, int parent, int job) {
    spans_.push_back(Span{std::move(name), parent, job, now_s(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s();
    return s.end - s.start;
  }
  const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  /// Chrome-trace JSON ("X" complete events, microseconds); one track per
  /// traced job so nesting reads directly as self time in Perfetto.
  void write_chrome_trace(const std::string& path,
                          const std::string& env) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write trace file " + path);
    f << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << env
      << ", \"traceEvents\": [\n";
    bool first = true;
    for (const Span& s : spans_) {
      if (s.end < s.start) continue;  // left open by a job that threw
      Json args;
      args.integer("job", static_cast<std::uint64_t>(s.job))
          .str("parent", s.parent >= 0 ? at(s.parent).name : "");
      Json ev;
      ev.str("name", s.name)
          .str("cat", "wall")
          .str("ph", "X")
          .num("ts", s.start * 1e6)
          .num("dur", (s.end - s.start) * 1e6)
          .integer("pid", 1)
          .integer("tid", static_cast<std::uint64_t>(s.job) + 1)
          .raw("args", args.text());
      f << (first ? "" : ",\n") << ev.text();
      first = false;
    }
    f << "\n]}\n";
    if (!f) throw std::runtime_error("short write to trace file " + path);
  }

 private:
  std::vector<Span> spans_;
};

/// What the traced pass learns from one layer call sequence.
struct LayerRun {
  std::string digest;
  double gen_bytes = 0.0;
  double digest_bytes = 0.0;
  double fc_flops = 0.0;  // Eq (8) CPU rate of the split, flops/s
  prs::core::JobStats stats;
};

/// The modeled replay of the spec (no payloads run): simulator and core
/// dispatch only. Returns events dispatched.
std::uint64_t modeled_replay(
    const JobSpec& spec,
    const std::shared_ptr<const prs::apps::Corpus>& corpus) {
  JobSpec modeled = spec;
  modeled.functional = false;
  JobCluster jc(modeled);
  if (spec.app == "cmeans") {
    prs::apps::CmeansParams p;
    p.clusters = spec.clusters;
    p.max_iterations = spec.iterations;
    (void)prs::apps::cmeans_prs_modeled(jc.cluster, spec.points, spec.dims, p,
                                        jc.cfg);
  } else if (spec.app == "dgemm") {
    (void)prs::apps::dgemm_prs_modeled(jc.cluster, spec.rows, spec.cols,
                                       spec.dims, jc.cfg);
  } else {
    (void)prs::apps::wordcount_prs(jc.cluster, corpus, jc.cfg);
  }
  return jc.sim.events_dispatched();
}

/// One traced job: the same calls run_job_spec makes, each wrapped in a
/// span, then the modeled replay as core.dispatch.
std::string traced_job(const JobSpec& spec, int threads, int job,
                       SpanLog& log) {
  namespace apps = prs::apps;
  namespace ckpt = prs::ckpt;
  prs::exec::ThreadPool::instance().configure(threads);
  const int root = log.begin("job", -1, job);

  int sp = log.begin("setup", root, job);
  auto jc = std::make_unique<JobCluster>(spec);
  prs::Rng rng(spec.seed);
  log.end(sp);
  const auto& sched = jc->cluster.scheduler(0);
  const int gpus = jc->node.gpus_per_node;

  LayerRun r;
  double gen_s = 0.0, run_s = 0.0, digest_s = 0.0;
  std::string error;
  const PoolDelta pool;
  const double body_start = now_s();
  std::shared_ptr<const apps::Corpus> corpus;
  Json counters;
  try {
    if (spec.app == "cmeans" && spec.functional) {
      sp = log.begin("data.gen", root, job);
      auto ds = prs::data::generate_blobs(rng, spec.points, spec.dims,
                                          spec.clusters, 10.0, 1.0);
      gen_s = log.end(sp);
      r.gen_bytes = static_cast<double>(ds.points.rows() * ds.points.cols() *
                                        sizeof(double));
      apps::CmeansParams p;
      p.clusters = spec.clusters;
      p.max_iterations = spec.iterations;
      p.seed = spec.seed;
      sp = log.begin("apps.run", root, job);
      auto res = apps::cmeans_prs(jc->cluster, ds.points, p, jc->cfg,
                                  &r.stats, nullptr);
      run_s = log.end(sp);
      sp = log.begin("ckpt.digest", root, job);
      ckpt::Writer w;
      ckpt::put_matrix(w, res.centers);
      w.f64(res.objective);
      r.digest = writer_digest(w);
      digest_s = log.end(sp);
      r.digest_bytes = static_cast<double>(w.size());
      r.fc_flops =
          sched.workload_split(apps::cmeans_arithmetic_intensity(spec.clusters),
                               false, gpus)
              .cpu_rate;
    } else if (spec.app == "cmeans") {
      apps::CmeansParams p;
      p.clusters = spec.clusters;
      p.max_iterations = spec.iterations;
      sp = log.begin("apps.run", root, job);
      r.stats = apps::cmeans_prs_modeled(jc->cluster, spec.points, spec.dims,
                                         p, jc->cfg);
      run_s = log.end(sp);
      // Modeled runs digest their statistics, as run_job_spec does.
      sp = log.begin("ckpt.digest", root, job);
      ckpt::Writer w;
      prs::core::visit_stats_fields(r.stats, [&w](const char*, const auto& v) {
        w.f64(static_cast<double>(v));
      });
      r.digest = writer_digest(w);
      digest_s = log.end(sp);
      r.digest_bytes = static_cast<double>(w.size());
    } else if (spec.app == "dgemm") {
      sp = log.begin("data.gen", root, job);
      auto a = prs::data::random_matrix(rng, spec.rows, spec.dims);
      auto b = prs::data::random_matrix(rng, spec.dims, spec.cols);
      gen_s = log.end(sp);
      r.gen_bytes = static_cast<double>((a.rows() * a.cols() +
                                         b.rows() * b.cols()) *
                                        sizeof(double));
      sp = log.begin("apps.run", root, job);
      auto c = apps::dgemm_prs(jc->cluster, a, b, jc->cfg, &r.stats);
      run_s = log.end(sp);
      sp = log.begin("ckpt.digest", root, job);
      {
        ckpt::Writer w;
        ckpt::put_matrix(w, c);
        r.digest = writer_digest(w);
        r.digest_bytes = static_cast<double>(w.size());
      }
      // Releasing the 640 MB result and its encoding is part of the
      // digest's cost in run_job_spec too.
      c = prs::linalg::MatrixD();
      digest_s = log.end(sp);
      r.fc_flops = sched
                       .workload_split(apps::dgemm_block_ai(
                                           static_cast<double>(spec.rows),
                                           spec.dims, spec.cols),
                                       true, gpus)
                       .cpu_rate;
    } else if (spec.app == "wordcount") {
      sp = log.begin("data.gen", root, job);
      corpus = std::make_shared<const apps::Corpus>(
          apps::generate_corpus(rng, spec.points, 8, 5000));
      gen_s = log.end(sp);
      for (const auto& line : *corpus) r.gen_bytes += line.size();
      sp = log.begin("apps.run", root, job);
      auto counts = apps::wordcount_prs(jc->cluster, corpus, jc->cfg,
                                        &r.stats);
      run_s = log.end(sp);
      sp = log.begin("ckpt.digest", root, job);
      ckpt::Writer w;
      w.u64(counts.size());
      for (const auto& [word, n] : counts) {
        w.str(word);
        w.u64(static_cast<std::uint64_t>(n));
      }
      r.digest = writer_digest(w);
      digest_s = log.end(sp);
      r.digest_bytes = static_cast<double>(w.size());
      const auto wc = apps::wordcount_spec(corpus);
      r.fc_flops = sched.workload_split(wc.ai_cpu, wc.ai_gpu,
                                        !wc.gpu_data_cached, gpus)
                       .cpu_rate;
    } else {
      throw std::invalid_argument("no traced path for app " + spec.app);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double functional_s = now_s() - body_start;
  pool.add_to(counters);
  jc.reset();

  sp = log.begin("core.dispatch", root, job);
  std::uint64_t events = 0;
  try {
    events = modeled_replay(spec, corpus);
  } catch (const std::exception& e) {
    if (error.empty()) error = e.what();
  }
  const double dispatch_s = log.end(sp);
  log.end(root);

  Json j;
  j.str("kind", "traced")
      .integer("threads", static_cast<std::uint64_t>(threads))
      .str("digest", r.digest)
      .str("error", error)
      .num("virtual_s", r.stats.elapsed)
      .num("gen_s", gen_s)
      .num("gen_bytes", r.gen_bytes)
      .num("run_s", run_s)
      .num("digest_s", digest_s)
      .num("digest_bytes", r.digest_bytes)
      .num("functional_s", functional_s)
      .num("dispatch_s", dispatch_s)
      .integer("events", events)
      .integer("map_tasks", r.stats.map_tasks)
      .integer("shuffle_pairs", r.stats.intermediate_pairs)
      .num("flops", spec.functional ? r.stats.total_flops() : 0.0)
      .num("fc_flops", r.fc_flops)
      .raw("pool", counters.text());
  return j.text();
}

// ---------------------------------------------------------------------- CLI

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: prs_perfbench setup|run ...");
  }
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else if (k == "--smoke") {
      a.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.mode != "setup" && a.mode != "run") {
    throw std::invalid_argument("mode must be setup or run");
  }
  if (a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

/// Runs jobs until the next one would end past `deadline` (by the last
/// duration of its kind); each kind in `kinds` runs at least once.
template <typename RunJob>
void run_until(double deadline, std::size_t kinds, RunJob&& run_job) {
  std::vector<double> last(kinds, 0.0);
  for (std::size_t n = 0;; ++n) {
    const std::size_t k = n % kinds;
    if (n >= kinds && now_s() + last[k] > deadline) return;
    const double t0 = now_s();
    run_job(k);
    last[k] = now_s() - t0;
  }
}

int run_mode(const Args& a) {
  const JobSpec spec = workload_spec(a.workload, a.smoke, a.seed);
  const double setup_s = process_setup(spec);
  const int threads = host_threads();
  const std::string env = env_json(spec, a.workload, a.smoke);
  const double start = now_s();
  std::vector<std::string> jobs;

  // Jobs rotate through the pooled, the single-thread and (with --trace 1)
  // the traced pooled job, so drift in the host's speed hits every kind
  // alike and the traced-minus-untraced overhead compares like with like.
  SpanLog log;
  int traced = 0;
  run_until(start + a.seconds, a.trace ? 3 : 2, [&](std::size_t k) {
    if (k == 2) {
      jobs.push_back(traced_job(spec, threads, traced++, log));
    } else {
      jobs.push_back(timed_job(spec, k == 0 ? threads : 1));
    }
  });

  std::string trace_file;
  if (a.trace) {
    trace_file = a.out_dir + "/" + a.workload + "-seed" +
                 std::to_string(a.seed) + ".wall.trace.json";
    log.write_chrome_trace(trace_file, env);
  }

  Json out;
  out.raw("env", env)
      .num("setup_s", setup_s)
      .str("trace_file", trace_file)
      .raw("jobs", json_array(jobs));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "setup") {
      const double setup_s =
          process_setup(workload_spec(a.workload, a.smoke, a.seed));
      std::printf("%s\n", Json().num("setup_s", setup_s).text().c_str());
      return 0;
    }
    return run_mode(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prs_perfbench: %s\n", e.what());
    return 2;
  }
}
