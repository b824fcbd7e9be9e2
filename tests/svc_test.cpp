// Tests for the prs::svc service layer: the virtual-GPU pool, the stride
// fair-share scheduler, admission control, the job server (digest equality
// with single-shot runs, 2:1 fair share within 5%, deterministic quota
// rejection, leak-free cancellation) and the socket line protocol.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"
#include "fault/fault_plan.hpp"
#include "simdev/virtual_gpu.hpp"
#include "svc/admission.hpp"
#include "svc/fair_share.hpp"
#include "svc/job_spec.hpp"
#include "svc/launcher.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "svc/stats_io.hpp"

namespace prs::svc {
namespace {

// ---------------------------------------------------------------- vGPU pool

simdev::VGpuPoolConfig pool_cfg(int cards, int slots) {
  simdev::VGpuPoolConfig cfg;
  cfg.cards = cards;
  cfg.slots_per_card = slots;
  return cfg;
}

TEST(VGpuPool, CapacityAndOversubscription) {
  simdev::VirtualGpuPool pool(pool_cfg(2, 4));
  EXPECT_EQ(pool.capacity(), 8);
  EXPECT_EQ(pool.free_slots(), 8);
  EXPECT_TRUE(pool.can_acquire(8));
  EXPECT_FALSE(pool.can_acquire(9));
}

TEST(VGpuPool, PlacementIsDeterministicLeastLoaded) {
  simdev::VirtualGpuPool pool(pool_cfg(3, 2));
  auto a = pool.acquire("a", 2);
  // Least-loaded with lowest-index ties: cards 0 and 1.
  EXPECT_EQ(a.cards(), (std::vector<int>{0, 1}));
  auto b = pool.acquire("b", 3);
  // Card 2 (empty) first, then 0 and 1 again.
  EXPECT_EQ(b.cards(), (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(pool.card_vgpus(0), 2);
  EXPECT_EQ(pool.card_vgpus(1), 2);
  EXPECT_EQ(pool.card_vgpus(2), 1);
}

TEST(VGpuPool, ExhaustionThrowsAndReleaseRestores) {
  simdev::VirtualGpuPool pool(pool_cfg(1, 2));
  auto a = pool.acquire("a", 2);
  EXPECT_THROW(pool.acquire("b", 1), ResourceExhausted);
  a.release();
  EXPECT_EQ(pool.free_slots(), 2);
  EXPECT_EQ(pool.active_leases(), 0);
  EXPECT_NO_THROW(pool.acquire("b", 1));
}

TEST(VGpuPool, UsageAccountingClearsOnRelease) {
  simdev::VirtualGpuPool pool(pool_cfg(1, 2));
  auto a = pool.acquire("a", 1);
  auto b = pool.acquire("b", 1);
  pool.report_usage(a, 3, 1000);
  pool.report_usage(b, 2, 500);
  EXPECT_EQ(pool.open_streams(), 5u);
  EXPECT_EQ(pool.memory_in_use(), 1500u);
  // Replace, not accumulate.
  pool.report_usage(a, 1, 100);
  EXPECT_EQ(pool.open_streams(), 3u);
  EXPECT_EQ(pool.memory_in_use(), 600u);
  a.release();
  EXPECT_EQ(pool.open_streams(), 2u);
  EXPECT_EQ(pool.memory_in_use(), 500u);
  b.release();
  EXPECT_EQ(pool.open_streams(), 0u);
  EXPECT_EQ(pool.memory_in_use(), 0u);
}

TEST(VGpuPool, MemoryQuotaShapesTheDeviceSpec) {
  simdev::VirtualGpuPool pool(pool_cfg(1, 2));
  const std::uint64_t physical = pool.config().card_spec.memory_bytes;
  auto capped = pool.acquire("a", 1, 4096);
  EXPECT_EQ(pool.vgpu_spec(capped).memory_bytes, 4096u);
  auto full = pool.acquire("b", 1, 0);
  EXPECT_EQ(pool.vgpu_spec(full).memory_bytes, physical);
  EXPECT_NE(pool.vgpu_spec(full).name, pool.config().card_spec.name)
      << "vGPU specs should be distinguishable from physical cards";
}

// ------------------------------------------------------------- fair share

TEST(StrideScheduler, TwoToOneGrantPattern) {
  TenantAccount a;
  a.name = "a";
  a.quota.weight = 2.0;
  TenantAccount b;
  b.name = "b";
  b.quota.weight = 1.0;
  int grants_a = 0;
  int grants_b = 0;
  for (int i = 0; i < 30; ++i) {
    std::vector<StrideCandidate> cands{{&a, 1}, {&b, 2}};
    const int pick = stride_pick(cands);
    ASSERT_GE(pick, 0);
    if (cands[static_cast<std::size_t>(pick)].tenant == &a) {
      stride_charge(a, 1.0);
      ++grants_a;
    } else {
      stride_charge(b, 1.0);
      ++grants_b;
    }
  }
  EXPECT_EQ(grants_a, 20);
  EXPECT_EQ(grants_b, 10);
}

TEST(StrideScheduler, TiesBreakByNameThenJobId) {
  TenantAccount a;
  a.name = "a";
  TenantAccount b;
  b.name = "b";
  // Equal pass: lexicographically smaller tenant wins.
  std::vector<StrideCandidate> cands{{&b, 1}, {&a, 2}};
  EXPECT_EQ(stride_pick(cands), 1);
  // Same tenant: lower job id wins.
  std::vector<StrideCandidate> same{{&a, 7}, {&a, 3}};
  EXPECT_EQ(stride_pick(same), 1);
  EXPECT_EQ(stride_pick({}), -1);
}

TEST(StrideScheduler, JoinClampPreventsBankedCredit) {
  TenantAccount idle;
  idle.name = "idle";
  TenantAccount busy;
  busy.name = "busy";
  stride_charge(busy, 100.0);
  stride_clamp_pass(idle, stride_min_pass({&busy}));
  EXPECT_DOUBLE_EQ(idle.pass, 100.0);
}

// -------------------------------------------------------------- admission

TEST(Admission, RejectionsAreDeterministic) {
  AdmissionController ctl(AdmissionConfig{4});
  TenantAccount t;
  t.name = "a";
  t.quota.max_vgpus = 2;
  JobSpec spec;
  spec.nodes = 4;
  spec.gpus = 1;  // needs 4 vGPUs
  auto d1 = ctl.check(&t, spec, 16, 0, false);
  auto d2 = ctl.check(&t, spec, 16, 0, false);
  EXPECT_EQ(d1.code, AdmitCode::kQuotaVgpus);
  EXPECT_EQ(d1.message, d2.message);
  EXPECT_NE(d1.message.find("'a'"), std::string::npos);

  EXPECT_EQ(ctl.check(nullptr, spec, 16, 0, false).code,
            AdmitCode::kUnknownTenant);
  EXPECT_EQ(ctl.check(&t, spec, 2, 0, false).code, AdmitCode::kTooLarge);
  EXPECT_EQ(ctl.check(&t, spec, 16, 0, true).code, AdmitCode::kDraining);
  JobSpec small;
  small.nodes = 1;
  EXPECT_EQ(ctl.check(&t, small, 16, 4, false).code, AdmitCode::kQueueFull);
  t.queued = t.quota.max_queued;
  EXPECT_EQ(ctl.check(&t, small, 16, 0, false).code, AdmitCode::kQuotaQueued);
}

// ---------------------------------------------------------------- JobSpec

TEST(JobSpecWire, TokensRoundTrip) {
  JobSpec spec;
  spec.app = "kmeans";
  spec.nodes = 3;
  spec.points = 4321;
  spec.functional = true;
  spec.seed = 99;
  spec.gpu_mem_bytes = 2048;
  const std::string tokens = spec.to_tokens();
  std::vector<std::string> toks;
  std::size_t pos = 0;
  while (pos < tokens.size()) {
    auto sp = tokens.find(' ', pos);
    if (sp == std::string::npos) sp = tokens.size();
    toks.push_back(tokens.substr(pos, sp - pos));
    pos = sp + 1;
  }
  JobSpec parsed = parse_job_spec(parse_kv_tokens(toks));
  EXPECT_EQ(parsed.app, "kmeans");
  EXPECT_EQ(parsed.nodes, 3);
  EXPECT_EQ(parsed.points, 4321u);
  EXPECT_TRUE(parsed.functional);
  EXPECT_EQ(parsed.seed, 99u);
  EXPECT_EQ(parsed.gpu_mem_bytes, 2048u);
  // Defaults survive the round trip.
  EXPECT_EQ(parsed.testbed, spec.testbed);
  EXPECT_EQ(parsed.iterations, spec.iterations);

  // Doubles and spaced multi-clause fault specs survive exactly: each
  // field stays one token and parses back to the same value.
  spec.fault_spec =
      "slow_node:node1:x2; link_drop:*:p=0.05 ;gpu_hang:node0:t=3ms";
  for (const double p : {0.123456789, 1e-7}) {
    spec.cpu_fraction = p;
    const JobSpec back = parse_job_spec_tokens(spec.to_tokens());
    EXPECT_EQ(back.cpu_fraction, p);
    EXPECT_EQ(fault::FaultPlan::parse(back.fault_spec).clauses,
              fault::FaultPlan::parse(spec.fault_spec).clauses);
    EXPECT_EQ(back.app, "kmeans");
    EXPECT_EQ(back.gpu_mem_bytes, 2048u);
  }
}

TEST(JobSpecWire, ValidateRejectsBadCombinations) {
  JobSpec both;
  both.gpu_only = true;
  both.cpu_only = true;
  EXPECT_THROW(both.validate(), InvalidArgument);
  JobSpec unknown;
  unknown.app = "frobnicate";
  EXPECT_THROW(unknown.validate(), InvalidArgument);
  JobSpec modeled_stencil;
  modeled_stencil.app = "stencil";
  modeled_stencil.functional = false;
  EXPECT_THROW(modeled_stencil.validate(), InvalidArgument);
}

TEST(JobSpecWire, PipelineDepthNeedsStaticDispatch) {
  JobSpec spec;
  spec.pipeline_depth = 4;
  EXPECT_NO_THROW(spec.validate());
  spec.policy = "adaptive";
  EXPECT_NO_THROW(spec.validate());
  spec.policy = "dynamic";
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.pipeline_depth = 1;
  EXPECT_NO_THROW(spec.validate());
}

TEST(JobSpecWire, ValidateRejectsFftSizeThatIsNotAPowerOfTwo) {
  // The shared default cols (10000) used to pass admission and then throw
  // from inside the FFT kernel.
  JobSpec fft;
  fft.app = "fft";
  try {
    fft.validate();
    FAIL() << "expected prs::InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--cols"), std::string::npos)
        << e.what();
  }
  for (const std::size_t bad : {std::size_t{1}, std::size_t{3},
                                std::size_t{1000}, std::size_t{1025}}) {
    fft.cols = bad;
    EXPECT_THROW(fft.validate(), InvalidArgument) << "cols=" << bad;
  }
  for (const std::size_t good : {std::size_t{2}, std::size_t{64},
                                 std::size_t{1024}}) {
    fft.cols = good;
    EXPECT_NO_THROW(fft.validate()) << "cols=" << good;
  }
  // Only fft reads cols as a transform size.
  JobSpec gemv;
  gemv.app = "gemv";
  gemv.cols = 1000;
  EXPECT_NO_THROW(gemv.validate());
}

// ---------------------------------------------------------------- stats io

TEST(StatsIo, TextAndJsonCarryTheFields) {
  core::JobStats s;
  s.elapsed = 2.0;
  s.cpu_flops = 10.0;
  s.gpu_flops = 30.0;
  s.map_tasks = 7;
  const std::string text = job_stats_text(s, 2, nullptr);
  EXPECT_NE(text.find("-- runtime statistics --"), std::string::npos);
  EXPECT_NE(text.find("virtual time"), std::string::npos);
  EXPECT_NE(text.find("CPU share 25.0%"), std::string::npos);
  const std::string json = job_stats_json(s);
  EXPECT_NE(json.find("\"elapsed\":2"), std::string::npos);
  EXPECT_NE(json.find("\"map_tasks\":7"), std::string::npos);
}

// -------------------------------------------------------------- job server

/// Runs `spec` exactly the way prs_run does (fresh simulator and cluster,
/// own policy/injector), returning the outcome — the digest oracle the
/// server must match.
LaunchOutcome run_single_shot(const JobSpec& spec) {
  sim::Simulator sim;
  core::NodeConfig node = spec.node_config();
  core::Cluster cluster(sim, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();
  const JobResources res = make_job_resources(spec, sim, cfg);
  Rng rng(spec.seed);
  return run_job_spec(spec, cluster, node, cfg, rng, res.checkpoint());
}

JobSpec small_cmeans(int iterations) {
  JobSpec spec;
  spec.app = "cmeans";
  spec.nodes = 1;
  spec.gpus = 1;
  spec.points = 1500;
  spec.dims = 6;
  spec.clusters = 3;
  spec.iterations = iterations;
  spec.functional = true;
  spec.seed = 7;
  return spec;
}

JobServer::Config server_cfg(int cards, int slots, int max_queue = 32) {
  JobServer::Config cfg;
  cfg.pool.cards = cards;
  cfg.pool.slots_per_card = slots;
  cfg.admission.max_queue_depth = max_queue;
  return cfg;
}

TEST(JobServer, SubmittedJobMatchesSingleShotDigest) {
  const JobSpec spec = small_cmeans(6);
  const LaunchOutcome oracle = run_single_shot(spec);
  ASSERT_FALSE(oracle.digest.empty());

  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  auto res = server.submit("a", spec);
  ASSERT_TRUE(res.ok()) << res.decision.message;
  server.run_until_idle();
  const JobStatus st = server.status(res.job_id);
  EXPECT_EQ(st.state, JobState::kDone) << st.error;
  EXPECT_EQ(st.digest, oracle.digest);
  EXPECT_EQ(st.lines, oracle.lines);
  EXPECT_GT(st.stages, spec.iterations);  // one gate per iteration + tail
}

TEST(JobServer, ModeledAndWordcountDigestsMatchToo) {
  JobSpec modeled;
  modeled.app = "gmm";
  modeled.nodes = 2;
  modeled.points = 50000;
  modeled.dims = 20;
  modeled.clusters = 4;
  modeled.iterations = 4;
  modeled.functional = false;
  JobSpec wc;
  wc.app = "wordcount";
  wc.nodes = 2;
  wc.points = 800;
  wc.functional = true;
  wc.seed = 11;

  JobServer server(server_cfg(2, 2));
  server.add_tenant("a", TenantQuota{});
  auto r1 = server.submit("a", modeled);
  auto r2 = server.submit("a", wc);
  ASSERT_TRUE(r1.ok() && r2.ok());
  server.run_until_idle();
  EXPECT_EQ(server.status(r1.job_id).digest, run_single_shot(modeled).digest);
  EXPECT_EQ(server.status(r2.job_id).digest, run_single_shot(wc).digest);
}

TEST(JobServer, FaultInjectedJobMatchesSingleShotDigest) {
  JobSpec spec = small_cmeans(5);
  spec.fault_spec = "slow_node:node0:x2";
  spec.fault_seed = 3;
  const LaunchOutcome oracle = run_single_shot(spec);

  JobServer server(server_cfg(1, 1));
  server.add_tenant("a", TenantQuota{});
  auto res = server.submit("a", spec);
  ASSERT_TRUE(res.ok()) << res.decision.message;
  server.run_until_idle();
  const JobStatus st = server.status(res.job_id);
  EXPECT_EQ(st.state, JobState::kDone) << st.error;
  EXPECT_EQ(st.digest, oracle.digest);
}

// The acceptance test of the fair-share scheduler: two tenants with 2:1
// weights sharing one physical card (2x oversubscribed). Both submit an
// identical modeled job before the pump starts; while both are runnable,
// vnow advances only through a's or b's stages, which makes the share
// measurable exactly at a's completion:
// service_b = finish_vnow_a - service_a. The iteration counts are chosen
// so iteration work dominates the one-time stage-in cost (~1.2 vsec) —
// stride fairness is a steady-state property, and a job that ends before
// the passes converge would only measure that fixed setup stage.
TEST(JobServer, WeightedTenantsShareWithinFivePercent) {
  JobSpec spec;
  spec.app = "cmeans";
  spec.nodes = 1;
  spec.points = 2000;
  spec.dims = 8;
  spec.clusters = 4;
  spec.iterations = 1000;
  spec.functional = false;  // modeled: gated iterations, no real compute

  JobServer server(server_cfg(1, 2));
  TenantQuota heavy;
  heavy.weight = 2.0;
  TenantQuota light;
  light.weight = 1.0;
  server.add_tenant("a", heavy);
  server.add_tenant("b", light);

  auto ja = server.submit("a", spec);
  JobSpec longer = spec;
  longer.iterations = 3000;  // b outlives a, so a finishes under contention
  auto jb = server.submit("b", longer);
  ASSERT_TRUE(ja.ok() && jb.ok());
  server.run_until_idle();

  const JobStatus sa = server.status(ja.job_id);
  const JobStatus sb = server.status(jb.job_id);
  ASSERT_EQ(sa.state, JobState::kDone) << sa.error;
  ASSERT_EQ(sb.state, JobState::kDone) << sb.error;
  ASSERT_LT(sa.finish_vnow, sb.finish_vnow) << "a must finish first";

  const double service_a = sa.service;
  const double service_b_at_a_finish = sa.finish_vnow - sa.service;
  ASSERT_GT(service_b_at_a_finish, 0.0);
  const double ratio = service_a / service_b_at_a_finish;
  EXPECT_NEAR(ratio, 2.0, 2.0 * 0.05)
      << "weighted share off by more than 5%: a=" << service_a
      << " b=" << service_b_at_a_finish;
}

TEST(JobServer, QuotaBreachRejectsDeterministically) {
  JobServer server(server_cfg(4, 2));  // capacity 8
  TenantQuota quota;
  quota.max_vgpus = 2;
  server.add_tenant("a", quota);
  JobSpec big = small_cmeans(3);
  big.nodes = 4;  // needs 4 vGPUs > quota 2
  auto r1 = server.submit("a", big);
  auto r2 = server.submit("a", big);
  EXPECT_FALSE(r1.ok());
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r1.decision.code, AdmitCode::kQuotaVgpus);
  EXPECT_EQ(r1.decision.message, r2.decision.message);
  EXPECT_EQ(server.tenant_account("a").jobs_rejected, 2u);
  // Larger than the whole pool: a different, equally deterministic code.
  JobSpec huge = small_cmeans(3);
  huge.nodes = 9;
  TenantQuota wide;
  wide.max_vgpus = 64;
  server.add_tenant("wide", wide);
  EXPECT_EQ(server.submit("wide", huge).decision.code, AdmitCode::kTooLarge);
  // Unknown tenants never get in.
  EXPECT_EQ(server.submit("nobody", big).decision.code,
            AdmitCode::kUnknownTenant);
}

TEST(JobServer, QueueBoundAppliesBackpressure) {
  JobServer server(server_cfg(1, 1, /*max_queue=*/1));
  server.add_tenant("a", TenantQuota{});
  const JobSpec spec = small_cmeans(3);
  auto r1 = server.submit("a", spec);  // queued (pump not running)
  auto r2 = server.submit("a", spec);  // queue full
  EXPECT_TRUE(r1.ok());
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.decision.code, AdmitCode::kQueueFull);
  server.run_until_idle();
  EXPECT_EQ(server.status(r1.job_id).state, JobState::kDone);
  // With the queue drained, submission works again.
  EXPECT_TRUE(server.submit("a", spec).ok());
  server.run_until_idle();
}

TEST(JobServer, DrainRejectsNewJobs) {
  JobServer server(server_cfg(1, 1));
  server.add_tenant("a", TenantQuota{});
  server.drain();
  auto res = server.submit("a", small_cmeans(3));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.decision.code, AdmitCode::kDraining);
}

TEST(JobServer, CancelMidIterationLeaksNothing) {
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  JobSpec spec = small_cmeans(500);  // long enough to be mid-run
  server.start();
  auto res = server.submit("a", spec);
  ASSERT_TRUE(res.ok());
  // Let it pass a handful of iteration gates, then cancel mid-flight.
  ASSERT_TRUE(server.wait_for_stages(res.job_id, 5));
  EXPECT_TRUE(server.cancel(res.job_id));
  const JobStatus st = server.wait(res.job_id);
  EXPECT_EQ(st.state, JobState::kCancelled);
  EXPECT_GE(st.stages, 5);
  server.stop();
  // The leak checks: no leases, streams or device memory left behind.
  EXPECT_EQ(server.pool().active_leases(), 0);
  EXPECT_EQ(server.pool().open_streams(), 0u);
  EXPECT_EQ(server.pool().memory_in_use(), 0u);
  EXPECT_EQ(server.tenant_account("a").jobs_cancelled, 1u);
}

TEST(JobServer, CancelQueuedJobNeverRuns) {
  JobServer server(server_cfg(1, 1));
  server.add_tenant("a", TenantQuota{});
  auto res = server.submit("a", small_cmeans(3));
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(server.cancel(res.job_id));  // pump never ran
  EXPECT_EQ(server.status(res.job_id).state, JobState::kCancelled);
  EXPECT_FALSE(server.cancel(res.job_id)) << "already terminal";
  server.run_until_idle();
  EXPECT_EQ(server.status(res.job_id).stages, 0);
}

TEST(JobServer, MemoryQuotaOverrunFailsTheOffendingJobOnly) {
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  JobSpec starved = small_cmeans(4);
  starved.gpu_mem_bytes = 256;  // far below the staging working set
  JobSpec fine = small_cmeans(4);
  auto r1 = server.submit("a", starved);
  auto r2 = server.submit("a", fine);
  ASSERT_TRUE(r1.ok() && r2.ok());
  server.run_until_idle();
  const JobStatus bad = server.status(r1.job_id);
  EXPECT_EQ(bad.state, JobState::kFailed);
  EXPECT_NE(bad.error.find("out of memory"), std::string::npos) << bad.error;
  EXPECT_EQ(server.status(r2.job_id).state, JobState::kDone);
  EXPECT_EQ(server.pool().active_leases(), 0);
  EXPECT_EQ(server.pool().memory_in_use(), 0u);
}

TEST(JobServer, MetricsCountTheLifecycle) {
  JobServer server(server_cfg(1, 1));
  server.add_tenant("a", TenantQuota{});
  auto ok = server.submit("a", small_cmeans(3));
  ASSERT_TRUE(ok.ok());
  server.run_until_idle();
  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("\"svc.jobs_submitted\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"svc.jobs_completed\":1"), std::string::npos);
  EXPECT_NE(json.find("svc.queue_wait_vsec"), std::string::npos);
  EXPECT_GT(server.vnow(), 0.0);
  EXPECT_GT(server.tenant_service("a"), 0.0);
}

// ---------------------------------------------------------------- protocol

TEST(Protocol, ParsesRequestsAndHeaders) {
  Request req = parse_request("submit tenant=a app=kmeans");
  EXPECT_EQ(req.verb, "SUBMIT");
  ASSERT_EQ(req.args.size(), 2u);
  auto kv = parse_kv_tokens(req.args);
  EXPECT_EQ(kv.at("tenant"), "a");
  EXPECT_EQ(kv.at("app"), "kmeans");
  EXPECT_THROW(parse_request("   "), InvalidArgument);
  EXPECT_THROW(parse_kv_tokens({"no-equals"}), InvalidArgument);
  EXPECT_EQ(header_field("OK id=12 lines=3", "lines", 0), 3);
  EXPECT_EQ(header_field("OK id=12", "lines", 0), 0);
}

TEST(Protocol, HandleRequestEndToEnd) {
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  bool shutdown = false;
  EXPECT_EQ(handle_request(server, "PING", &shutdown), "OK pong\n");

  const JobSpec spec = small_cmeans(4);
  const std::string submit =
      "SUBMIT tenant=a " + spec.to_tokens();
  const std::string resp = handle_request(server, submit, &shutdown);
  ASSERT_EQ(resp.rfind("OK id=", 0), 0u) << resp;
  server.run_until_idle();
  const std::string status = handle_request(server, "STATUS 1", &shutdown);
  EXPECT_NE(status.find("state=DONE"), std::string::npos) << status;
  EXPECT_NE(status.find(run_single_shot(spec).digest), std::string::npos);

  // Errors are ERR lines, not exceptions.
  EXPECT_EQ(handle_request(server, "STATUS 99", &shutdown).rfind("ERR ", 0),
            0u);
  EXPECT_EQ(handle_request(server, "SUBMIT tenant=ghost app=cmeans",
                           &shutdown)
                .rfind("ERR code=unknown_tenant", 0),
            0u);
  EXPECT_EQ(
      handle_request(server, "SUBMIT tenant=a app=nope", &shutdown).rfind(
          "ERR code=bad_spec", 0),
      0u);
  EXPECT_FALSE(shutdown);
  handle_request(server, "SHUTDOWN", &shutdown);
  EXPECT_TRUE(shutdown);
}

TEST(Protocol, RemovedEngineKeyIsRejectedAtSubmit) {
  // There is one fault-free runner; a SUBMIT still naming engine= is a
  // protocol error, answered before any job id is handed out.
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  bool shutdown = false;
  const std::string resp = handle_request(
      server, "SUBMIT tenant=a app=cmeans engine=graph", &shutdown);
  EXPECT_EQ(resp.rfind("ERR ", 0), 0u) << resp;
  EXPECT_NE(resp.find("engine"), std::string::npos) << resp;
  EXPECT_EQ(handle_request(server, "STATUS 1", &shutdown).rfind("ERR ", 0),
            0u);
}

TEST(Protocol, MalformedFaultSpecIsRejectedAtSubmit) {
  // A fault spec that does not parse is a bad job: rejected at SUBMIT with
  // code=bad_spec, never admitted to fail later.
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  bool shutdown = false;
  JobSpec spec = small_cmeans(2);
  spec.fault_spec = "bogus:node1";
  const std::string resp = handle_request(
      server, "SUBMIT tenant=a " + spec.to_tokens(), &shutdown);
  EXPECT_EQ(resp.rfind("ERR code=bad_spec", 0), 0u) << resp;
  EXPECT_NE(resp.find("bogus"), std::string::npos) << resp;
  spec.fault_spec = "gpu_hang:node1:t=2 ms";  // inner space: still bad
  EXPECT_EQ(handle_request(server, "SUBMIT tenant=a " + spec.to_tokens(),
                           &shutdown)
                .rfind("ERR code=bad_spec", 0),
            0u);
  EXPECT_EQ(handle_request(server, "STATUS 1", &shutdown).rfind("ERR ", 0),
            0u);
}

TEST(Protocol, SocketRoundTrip) {
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  server.start();
  const std::string path =
      "/tmp/prs_svc_test_" + std::to_string(::getpid()) + ".sock";
  SocketServer sock(path, [&server](const std::string& line, bool* sd) {
    return handle_request(server, line, sd);
  });

  SocketClient client(path);
  EXPECT_EQ(client.request("PING"), "OK pong\n");
  const JobSpec spec = small_cmeans(4);
  const std::string submitted =
      client.request("SUBMIT tenant=a " + spec.to_tokens());
  ASSERT_EQ(submitted.rfind("OK id=", 0), 0u) << submitted;
  const long id = header_field(submitted, "id", -1);
  ASSERT_GE(id, 1);
  const std::string done = client.request("WAIT " + std::to_string(id));
  EXPECT_NE(done.find("state=DONE"), std::string::npos) << done;
  // The continuation lines carry the job's result, digest included.
  EXPECT_NE(done.find("result digest: " + run_single_shot(spec).digest),
            std::string::npos)
      << done;
  sock.stop();
  server.stop();
}

// ------------------------------------------------- protocol hardening (fuzz)

/// Raw AF_UNIX connection for abuse the well-behaved SocketClient cannot
/// express: partial writes, silent hangs-up, oversized floods.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    PRS_CHECK(fd_ >= 0, "socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    PRS_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
              "connect() failed");
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  void send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return;  // server closed on us — that's allowed
      off += static_cast<std::size_t>(n);
    }
  }
  std::string read_some() {
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
  }

 private:
  int fd_ = -1;
};

/// Seeded garbage request line: random verbs, truncated SUBMITs, binary
/// noise, stray '=' tokens — everything short of an embedded newline.
std::string garbage_line(Rng& rng) {
  switch (rng.uniform_index(6)) {
    case 0: {  // random verb with random operands
      std::string line = "FROB";
      for (std::uint64_t i = 0; i < rng.uniform_index(4); ++i) {
        line += " tok" + std::to_string(rng.uniform_index(100));
      }
      return line;
    }
    case 1:  // SUBMIT with malformed tokens
      return "SUBMIT tenant=a app=cmeans =orphan points=abc";
    case 2:  // SUBMIT cut off mid-token
      return "SUBMIT tenant=a app=cme";
    case 3: {  // binary noise
      std::string line;
      for (std::uint64_t i = 0; i < 1 + rng.uniform_index(64); ++i) {
        char c = static_cast<char>(rng.uniform_index(256));
        if (c == '\n') c = ' ';
        line += c;
      }
      return line;
    }
    case 4:  // valid verb, nonsense job id
      return "WAIT not-a-number";
    default:  // empty-ish line
      return "   ";
  }
}

// The fuzz-lite acceptance: a storm of malformed, truncated, oversized and
// interleaved request lines plus silent clients must neither crash nor
// wedge the socket server — a PING afterwards still answers.
TEST(Protocol, FuzzLiteGarbageNeverWedgesTheServer) {
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  server.start();
  const std::string path =
      "/tmp/prs_fuzz_" + std::to_string(::getpid()) + ".sock";
  SocketServer sock(path, [&server](const std::string& line, bool* sd) {
    return handle_request(server, line, sd);
  });

  Rng rng(1234);
  for (int i = 0; i < 48; ++i) {
    SocketClient client(path);
    const std::string resp = client.request(garbage_line(rng));
    // Whatever the garbage was, the response is a well-formed ERR line —
    // never silence, never a crash.
    EXPECT_EQ(resp.rfind("ERR code=", 0), 0u) << resp;
    EXPECT_EQ(resp.back(), '\n');
  }

  {  // Oversized line: bounded buffer, explicit rejection, closed socket.
    RawConn conn(path);
    conn.send(std::string(SocketServer::kMaxLineBytes + 512, 'x'));
    const std::string resp = conn.read_some();
    EXPECT_NE(resp.find("ERR code=line_too_long"), std::string::npos) << resp;
  }
  {  // Interleaved request: bytes dribble in across several writes.
    RawConn conn(path);
    conn.send("PI");
    conn.send("NG");
    conn.send("\n");
    EXPECT_EQ(conn.read_some(), "OK pong\n");
  }
  {  // Silent client: connects, says nothing, hangs up.
    RawConn conn(path);
  }
  {  // Half a line, then hang up mid-request.
    RawConn conn(path);
    conn.send("SUBMIT tenant=a app=cme");
  }

  // The server survived it all and still serves well-formed traffic.
  SocketClient client(path);
  EXPECT_EQ(client.request("PING"), "OK pong\n");
  const std::string submitted =
      client.request("SUBMIT tenant=a " + small_cmeans(3).to_tokens());
  EXPECT_EQ(submitted.rfind("OK id=", 0), 0u) << submitted;
  sock.stop();
  server.stop();
}

TEST(Protocol, DedupKeyRidesTheWire) {
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  bool shutdown = false;
  const std::string submit =
      "SUBMIT tenant=a dedup=k1 " + small_cmeans(3).to_tokens();
  const std::string first = handle_request(server, submit, &shutdown);
  EXPECT_EQ(first, "OK id=1\n");
  // The retried SUBMIT is acknowledged with the same id, flagged deduped.
  const std::string again = handle_request(server, submit, &shutdown);
  EXPECT_EQ(again, "OK id=1 deduped=1\n");
  server.run_until_idle();
}

TEST(Protocol, QueueFullSubmitsGetRetryAfterAdvice) {
  JobServer server(server_cfg(1, 1, /*max_queue=*/1));
  server.add_tenant("a", TenantQuota{});
  bool shutdown = false;
  const std::string submit =
      "SUBMIT tenant=a " + small_cmeans(3).to_tokens();
  EXPECT_EQ(handle_request(server, submit, &shutdown), "OK id=1\n");
  // The queue bound is transient overload, not a hard error: the protocol
  // answers RETRY-AFTER with the advised backoff.
  const std::string shed = handle_request(server, submit, &shutdown);
  EXPECT_EQ(shed.rfind("RETRY-AFTER ", 0), 0u) << shed;
  EXPECT_NE(shed.find("code=queue_full"), std::string::npos) << shed;
  server.run_until_idle();
}

}  // namespace
}  // namespace prs::svc
