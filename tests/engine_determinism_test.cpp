// Engine determinism sweep: for every built-in application, the task-graph
// runner reproduces the result digests pinned from the retired stage
// runner — at pipeline depth 1 (where the schedule itself is the stage
// timeline) AND at depths 2/4 (where per-block D2H overlap and pipelined
// iteration windows change the *timing* but may not change a single
// result byte) — across host-pool thread counts.
//
// A second sweep pins digest AND virtual time of every app at host threads
// {1, 2, 4} x pipeline depth {1, 4} x static/dynamic dispatch: functional
// payloads run on the host pool somewhere between their task's start and
// completion, and where exactly may never show in a result or a clock.
//
// Digests come from svc::run_job_spec, the same canonical FNV-1a result
// digest prs_run and the job server print, so any regression caught here
// is exactly a user-visible result change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/cmeans.hpp"
#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/job_runner.hpp"
#include "core/schedule_policy.hpp"
#include "exec/thread_pool.hpp"
#include "svc/job_spec.hpp"
#include "svc/launcher.hpp"

namespace prs {
namespace {

/// Small-but-representative spec for each app: functional where the app
/// supports it (real data, real kernels), modeled for the FFT batch.
svc::JobSpec app_spec(const std::string& app) {
  svc::JobSpec spec;
  spec.app = app;
  spec.nodes = 3;
  spec.functional = true;
  spec.points = 400;
  spec.dims = 6;
  spec.clusters = 3;
  spec.iterations = 4;
  spec.rows = 96;
  spec.cols = 64;
  if (app == "dgemm") {
    spec.rows = 48;
    spec.cols = 40;
    spec.dims = 24;
  } else if (app == "stencil") {
    spec.dims = 40;  // grid rows
    spec.cols = 32;
    spec.iterations = 6;
  } else if (app == "fft") {
    spec.functional = false;  // modeled-only app
    spec.points = 64;
  } else if (app == "wordcount") {
    spec.points = 300;  // corpus lines
  }
  return spec;
}

/// Depth-1 digests of app_spec(app), pinned from the stage runner before
/// the task graph became the only fault-free runner.
const std::map<std::string, std::string>& pinned_digests() {
  static const std::map<std::string, std::string> pins = {
      {"cmeans", "de9498a2752edda5"},    {"kmeans", "d577cc8d98d6d9f2"},
      {"gmm", "703897dae037855e"},       {"gemv", "2e2da806987a60a8"},
      {"dgemm", "a6c2dd578bfdf0f3"},     {"fft", "afc039769dc48a31"},
      {"wordcount", "ff2126bc8e56f40a"}, {"stencil", "fd1284ed68020988"},
  };
  return pins;
}

svc::LaunchOutcome run_spec(svc::JobSpec spec, int threads) {
  exec::ThreadPool::instance().configure(threads);
  spec.validate();
  sim::Simulator simu;
  const core::NodeConfig node = spec.node_config();
  core::Cluster cluster(simu, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();
  // Holds the fault injector a fault_spec asks for (none otherwise).
  const svc::JobResources resources =
      svc::make_job_resources(spec, simu, cfg);
  Rng rng(spec.seed);
  svc::LaunchOutcome out =
      svc::run_job_spec(spec, cluster, node, cfg, rng, nullptr);
  EXPECT_FALSE(out.digest.empty()) << spec.app << " produced no digest";
  return out;
}

std::string run_digest(const std::string& app, int depth, int threads) {
  svc::JobSpec spec = app_spec(app);
  spec.pipeline_depth = depth;
  return run_spec(spec, threads).digest;
}

class EngineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineDeterminism, GraphMatchesStagesAcrossDepthsAndThreads) {
  const std::string app = GetParam();
  // FFT is the one modeled-only app: its digest hashes the JobStats —
  // virtual *timing* — which deeper pipelines legitimately improve. Every
  // functional app hashes result data, which may never change.
  const bool digest_is_timing = app_spec(app).functional == false;
  const std::string& reference = pinned_digests().at(app);
  for (const int depth : {1, 2, 4}) {
    const std::string at_one_thread = run_digest(app, depth, 1);
    if (depth == 1 || !digest_is_timing) {
      // Depth 1 is the faithful schedule (timing included); functional
      // results are depth-invariant at any depth.
      EXPECT_EQ(at_one_thread, reference)
          << app << " diverged at depth=" << depth;
    }
    // Host-pool size may never leak into a digest, timing or results.
    EXPECT_EQ(run_digest(app, depth, 3), at_one_thread)
        << app << " depth=" << depth << " digest depends on thread count";
  }
}

/// One (digest, virtual time) pin per app x pipeline depth x policy,
/// recorded before device payloads ran between their task's start and
/// completion: where a payload runs on the host may not move a result
/// byte or a virtual second.
struct Pin {
  const char* digest;
  double elapsed;
};

const std::map<std::string, Pin>& pinned_runs() {
  static const std::map<std::string, Pin> pins = {
      {"cmeans/static/d1", {"de9498a2752edda5", 1.2068020134119752}},
      {"cmeans/static/d4", {"de9498a2752edda5", 1.2068010185028841}},
      {"cmeans/dynamic/d1", {"8a978ed87801203d", 1.2074931970289722}},
      {"kmeans/static/d1", {"d577cc8d98d6d9f2", 1.2068007025719796}},
      {"kmeans/static/d4", {"d577cc8d98d6d9f2", 1.2068003512992531}},
      {"kmeans/dynamic/d1", {"87e336df13bcc3d5", 1.2074930397967307}},
      {"gmm/static/d1", {"703897dae037855e", 1.2068054607556635}},
      {"gmm/static/d4", {"703897dae037855e", 1.2068042083920276}},
      {"gmm/dynamic/d1", {"8776db97479d9f75", 1.2074968820776442}},
      {"gemv/static/d1", {"2e2da806987a60a8", 1.2016933484446151}},
      {"gemv/static/d4", {"2e2da806987a60a8", 1.2016933484446151}},
      {"gemv/dynamic/d1", {"2e2da806987a60a8", 1.2013924467361023}},
      {"dgemm/static/d1", {"a6c2dd578bfdf0f3", 1.201682422766243}},
      {"dgemm/static/d4", {"a6c2dd578bfdf0f3", 1.2016823136753341}},
      {"dgemm/dynamic/d1", {"a6c2dd578bfdf0f3", 1.2012378417245746}},
      {"fft/static/d1", {"afc039769dc48a31", 1.2017028278324404}},
      {"fft/static/d4", {"13137db549070281", 1.2017026532869859}},
      {"fft/dynamic/d1", {"2c14a8695b4ed784", 1.201289719627584}},
      {"wordcount/static/d1", {"ff2126bc8e56f40a", 1.2019610994109706}},
      {"wordcount/static/d4", {"ff2126bc8e56f40a", 1.2019609876352131}},
      {"wordcount/dynamic/d1", {"ff2126bc8e56f40a", 1.2019636016597952}},
      {"stencil/static/d1", {"fd1284ed68020988", 1.2102348049433489}},
      {"stencil/static/d4", {"fd1284ed68020988", 0.0003650304000000001}},
      {"stencil/dynamic/d1", {"fd1284ed68020988", 1.2076183995509926}},
  };
  return pins;
}

TEST_P(EngineDeterminism, PinnedAcrossThreadsDepthsAndPolicies) {
  const std::string app = GetParam();
  // Dynamic dispatch runs at depth 1 only: deeper pipelines need a
  // static-dispatch policy (JobSpec::validate rejects the rest).
  for (const char* policy : {"static", "dynamic"}) {
    for (const int depth : {1, 4}) {
      if (std::string(policy) == "dynamic" && depth > 1) continue;
      const std::string key =
          app + "/" + policy + "/d" + std::to_string(depth);
      const auto pin = pinned_runs().find(key);
      ASSERT_NE(pin, pinned_runs().end()) << "no pin for " << key;
      for (const int threads : {1, 2, 4}) {
        svc::JobSpec spec = app_spec(app);
        spec.policy = policy;
        spec.pipeline_depth = depth;
        const svc::LaunchOutcome out = run_spec(spec, threads);
        EXPECT_EQ(out.digest, pin->second.digest)
            << key << " digest at " << threads << " host threads";
        EXPECT_EQ(out.stats.elapsed, pin->second.elapsed)
            << key << " virtual time at " << threads << " host threads";
      }
    }
  }
}

// Map payloads of blocks in flight together run together: a wave of
// started blocks shares one pool region instead of opening one per block.
TEST(PayloadBatching, WordcountOpensFarFewerPoolRegionsThanMapTasks) {
  svc::JobSpec spec = app_spec("wordcount");
  spec.points = 20000;  // corpus lines
  auto& pool = exec::ThreadPool::instance();
  pool.configure(4);  // stats survive run_spec's configure(4)
  const exec::PoolStats before = pool.stats();
  const svc::LaunchOutcome out = run_spec(spec, 4);
  const exec::PoolStats after = pool.stats();
  const std::uint64_t regions = after.jobs - before.jobs;
  ASSERT_GT(out.stats.map_tasks, 0u);
  EXPECT_LE(10 * regions, out.stats.map_tasks)
      << regions << " pool regions for " << out.stats.map_tasks
      << " map tasks";
}

// -- modeled runs ---------------------------------------------------------------
//
// A modeled run's digest hashes its JobStats: pair counts, bytes on the
// wire and virtual times, never an intermediate value. These pins were
// recorded while the stand-ins still emitted and combined zero-filled
// partials; stand-ins that emit only keys must reproduce them byte for
// byte.

/// Small paper-shaped modeled spec of `app` on two to four nodes.
svc::JobSpec modeled_spec(const std::string& app) {
  svc::JobSpec spec;
  spec.app = app;
  spec.functional = false;
  if (app == "cmeans" || app == "kmeans") {
    spec.nodes = 4;
    spec.points = 40000;
    spec.dims = 20;
    spec.clusters = 8;
    spec.iterations = 3;
  } else if (app == "gmm") {
    spec.nodes = 3;
    spec.points = 30000;
    spec.dims = 10;
    spec.clusters = 4;
    spec.iterations = 3;
  } else if (app == "gemv") {
    spec.nodes = 2;
    spec.rows = 8000;
    spec.cols = 2000;
  } else if (app == "dgemm") {
    spec.nodes = 2;
    spec.rows = 512;
    spec.cols = 512;
    spec.dims = 256;
  } else if (app == "fft") {
    spec.nodes = 2;
    spec.points = 256;
    spec.cols = 256;
  } else if (app == "wordcount") {
    spec.nodes = 2;
    spec.points = 2000;  // corpus lines
  }
  return spec;
}

/// The modeled cases: every app that runs modeled, dynamic dispatch, and
/// the fault-tolerant path (engaged by any fault clause).
svc::JobSpec modeled_case(const std::string& key) {
  const auto slash = key.find('/');
  svc::JobSpec spec = modeled_spec(key.substr(0, slash));
  const std::string variant =
      slash == std::string::npos ? "" : key.substr(slash + 1);
  if (variant == "dynamic") {
    spec.policy = "dynamic";
  } else if (variant == "faults") {
    spec.fault_spec = "task_error:node1:p=0.1;slow_node:node2:x3";
  }
  return spec;
}

const std::map<std::string, Pin>& modeled_pins() {
  static const std::map<std::string, Pin> pins = {
      {"cmeans", {"f7267311ab85f20f", 1.2055559341163837}},
      {"cmeans/dynamic", {"42d59bdd8cb05d74", 1.2055332013022486}},
      {"cmeans/faults", {"1ac3726535d18f8f", 1.2775278119689817}},
      {"cmeans/no-local-combine", {"e643a3c599511395", 1.2018542900039157}},
      {"kmeans", {"2badb2682b16725e", 1.2053503650834749}},
      {"gmm", {"67230351ba9175df", 1.2052757990184317}},
      {"gmm/faults", {"54bb175a569d86b0", 1.2413825232023905}},
      {"gemv", {"a36fb7a9ff07c39f", 1.2022149728867486}},
      {"dgemm", {"4a70a662c41f0098", 1.2028264731694469}},
      {"fft", {"80091ebd7d32d437", 1.2022772881859021}},
      {"wordcount", {"477cc126594a7483", 1.201667418825451}},
  };
  return pins;
}

/// The launcher's modeled digest, for jobs run straight through run_job.
std::string stats_digest(const core::JobStats& stats) {
  ckpt::Hasher h;
  core::visit_stats_fields(stats, [&h](const char*, const auto& value) {
    h.f64(static_cast<double>(value));
  });
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h.value()));
  return buf;
}

TEST(ModeledPins, JobStatsByteIdenticalForEveryModeledApp) {
  for (const char* key :
       {"cmeans", "cmeans/dynamic", "cmeans/faults", "kmeans", "gmm",
        "gmm/faults", "gemv", "dgemm", "fft", "wordcount"}) {
    const svc::LaunchOutcome out = run_spec(modeled_case(key), 2);
    EXPECT_EQ(out.stats.task_retries > 0,
              std::string(key).find("faults") != std::string::npos)
        << key;
    const Pin& pin = modeled_pins().at(key);
    EXPECT_EQ(out.digest, pin.digest) << key;
    EXPECT_EQ(out.stats.elapsed, pin.elapsed) << key;
  }
}

// Without the node-local combiner every raw stand-in pair is shuffled and
// the reduce-side merge sees repeated keys from every map task.
TEST(ModeledPins, WithoutLocalCombineByteIdentical) {
  exec::ThreadPool::instance().configure(2);
  sim::Simulator simu;
  core::Cluster cluster(simu, 3, svc::JobSpec{}.node_config());
  apps::CmeansParams params;
  params.clusters = 6;
  auto state = std::make_shared<apps::CmeansState>();
  state->centers = linalg::MatrixD(6, 16, 0.0);
  apps::CmeansSpec spec = apps::cmeans_spec(state, params, 16);
  spec.local_combine = false;
  core::JobConfig cfg;
  cfg.mode = core::ExecutionMode::kModeled;
  const auto res = core::run_job(cluster, spec, cfg, 30000);
  EXPECT_EQ(res.output.size(), 6u);
  const Pin& pin = modeled_pins().at("cmeans/no-local-combine");
  EXPECT_EQ(stats_digest(res.stats), pin.digest);
  EXPECT_EQ(res.stats.elapsed, pin.elapsed);
}

INSTANTIATE_TEST_SUITE_P(AllApps, EngineDeterminism,
                         ::testing::Values("cmeans", "kmeans", "gmm", "gemv",
                                           "dgemm", "fft", "wordcount",
                                           "stencil"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace prs
