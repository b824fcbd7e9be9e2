// Unit tests for the prs_run command-line parser and its mapping onto
// NodeConfig / JobConfig, plus end-to-end runs of the prs_run binary for
// the front-door contract (a bad spec is refused at validation).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "tools/cli_options.hpp"

namespace prs::tools {
namespace {

bool parse(std::vector<const char*> args, Options& out, std::string& err) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prs_run"));
  for (auto* a : args) argv.push_back(const_cast<char*>(a));
  return parse_options(static_cast<int>(argv.size()), argv.data(), out, err);
}

TEST(Cli, DefaultsAreSane) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({}, o, err)) << err;
  EXPECT_EQ(o.app, "cmeans");
  EXPECT_EQ(o.nodes, 4);
  EXPECT_FALSE(o.functional);
  EXPECT_FALSE(o.show_help);
}

TEST(Cli, ParsesAllValueOptions) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({"--app=gmm", "--testbed=bigred2", "--nodes=8",
                     "--gpus=2", "--points=12345", "--dims=60",
                     "--clusters=7", "--iterations=3", "--rows=11",
                     "--cols=22", "--scheduling=dynamic",
                     "--cpu-fraction=0.25", "--seed=9"},
                    o, err))
      << err;
  EXPECT_EQ(o.app, "gmm");
  EXPECT_EQ(o.testbed, "bigred2");
  EXPECT_EQ(o.nodes, 8);
  EXPECT_EQ(o.gpus, 2);
  EXPECT_EQ(o.points, 12345u);
  EXPECT_EQ(o.dims, 60u);
  EXPECT_EQ(o.clusters, 7);
  EXPECT_EQ(o.iterations, 3);
  EXPECT_EQ(o.rows, 11u);
  EXPECT_EQ(o.cols, 22u);
  EXPECT_EQ(o.scheduling, "dynamic");
  EXPECT_DOUBLE_EQ(o.cpu_fraction, 0.25);
  EXPECT_EQ(o.seed, 9u);
}

TEST(Cli, FlagsAndAliases) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({"--functional", "--gpu-only", "--lines=77"}, o, err));
  EXPECT_TRUE(o.functional);
  EXPECT_TRUE(o.gpu_only);
  EXPECT_EQ(o.points, 77u);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Options o;
  std::string err;
  EXPECT_FALSE(parse({"--bogus=1"}, o, err));
  EXPECT_NE(err.find("--bogus"), std::string::npos);
  EXPECT_FALSE(parse({"--nodes=zero"}, o, err));
  EXPECT_FALSE(parse({"--nodes=0"}, o, err));
  EXPECT_FALSE(parse({"--cpu-fraction=1.5"}, o, err));
  EXPECT_FALSE(parse({"--testbed=mars"}, o, err));
  EXPECT_FALSE(parse({"--scheduling=magic"}, o, err));
  EXPECT_FALSE(parse({"--policy=greedy"}, o, err));
  EXPECT_FALSE(parse({"positional"}, o, err));
}

TEST(Cli, PolicySelection) {
  // --policy accepts the three level-2 policies and wins over the legacy
  // --scheduling spelling; without it, --scheduling still decides.
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--policy=adaptive"}, o, err)) << err;
  EXPECT_EQ(o.policy_name(), "adaptive");
  // Adaptive refines the static dispatch path.
  EXPECT_EQ(o.job_config().scheduling, core::SchedulingMode::kStatic);

  Options o2;
  ASSERT_TRUE(parse({"--scheduling=dynamic", "--policy=static"}, o2, err));
  EXPECT_EQ(o2.policy_name(), "static");
  EXPECT_EQ(o2.job_config().scheduling, core::SchedulingMode::kStatic);

  Options o3;
  ASSERT_TRUE(parse({"--scheduling=dynamic"}, o3, err));
  EXPECT_EQ(o3.policy_name(), "dynamic");
  EXPECT_EQ(o3.job_config().scheduling, core::SchedulingMode::kDynamic);
}

TEST(Cli, RejectsContradictoryBackends) {
  Options o;
  std::string err;
  EXPECT_FALSE(parse({"--gpu-only", "--cpu-only"}, o, err));
  EXPECT_FALSE(parse({"--gpu-only", "--gpus=0"}, o, err));
}

TEST(Cli, HelpAndListShortCircuit) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({"--help"}, o, err));
  EXPECT_TRUE(o.show_help);
  Options o2;
  EXPECT_TRUE(parse({"--list"}, o2, err));
  EXPECT_TRUE(o2.show_list);
  EXPECT_FALSE(usage().empty());
}

TEST(Cli, NodeConfigMapping) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--testbed=bigred2", "--gpus=2"}, o, err));
  auto cfg = o.node_config();
  EXPECT_EQ(cfg.cpu.name, "BigRed2 AMD Opteron 6212");
  EXPECT_EQ(cfg.gpu.name, "NVIDIA Tesla K20");
  EXPECT_EQ(cfg.gpus_per_node, 2);

  Options phi;
  ASSERT_TRUE(parse({"--testbed=phi"}, phi, err));
  EXPECT_EQ(phi.node_config().gpu.name, "Intel Xeon Phi 5110P");
}

TEST(Cli, JobConfigMapping) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--scheduling=dynamic", "--functional", "--cpu-only",
                     "--cpu-fraction=0.5"},
                    o, err));
  auto cfg = o.job_config();
  EXPECT_EQ(cfg.scheduling, core::SchedulingMode::kDynamic);
  EXPECT_EQ(cfg.mode, core::ExecutionMode::kFunctional);
  EXPECT_FALSE(cfg.use_gpu);
  EXPECT_TRUE(cfg.use_cpu);
  EXPECT_DOUBLE_EQ(cfg.cpu_fraction_override, 0.5);
}

TEST(Cli, CheckpointFlagsParseAndValidate) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--app=cmeans", "--functional", "--checkpoint-every=3",
                     "--checkpoint-dir=/tmp/ck", "--resume"},
                    o, err))
      << err;
  EXPECT_EQ(o.checkpoint_every, 3);
  EXPECT_EQ(o.checkpoint_dir, "/tmp/ck");
  EXPECT_TRUE(o.resume);

  // --resume alone picks interval 1 downstream but still needs a directory.
  Options dirless;
  EXPECT_FALSE(parse({"--app=cmeans", "--functional", "--resume"}, dirless,
                     err));
  Options everyless;
  EXPECT_FALSE(parse({"--app=cmeans", "--functional", "--checkpoint-every=2"},
                     everyless, err));

  // Snapshots carry real app state: modeled runs and the non-iterative apps
  // have none to carry.
  Options modeled;
  EXPECT_FALSE(parse({"--app=cmeans", "--checkpoint-every=2",
                      "--checkpoint-dir=/tmp/ck"},
                     modeled, err));
  Options wrong_app;
  EXPECT_FALSE(parse({"--app=gemv", "--functional", "--checkpoint-every=2",
                      "--checkpoint-dir=/tmp/ck"},
                     wrong_app, err));
  Options repeated;
  EXPECT_FALSE(parse({"--app=cmeans", "--functional", "--repeat=2",
                      "--checkpoint-every=2", "--checkpoint-dir=/tmp/ck"},
                     repeated, err));
  Options zero;
  EXPECT_FALSE(parse({"--app=cmeans", "--functional", "--checkpoint-every=0",
                      "--checkpoint-dir=/tmp/ck"},
                     zero, err));
}

// Regression for the silent-ignore path: --help/--list used to stop the
// parser, so anything after them — including typos — was accepted without
// validation. Unknown flags must now fail, naming the flag, no matter
// where they appear.
TEST(Cli, UnknownFlagAfterHelpOrListIsRejected) {
  Options o;
  std::string err;
  EXPECT_FALSE(parse({"--list", "--bogus=1"}, o, err));
  EXPECT_NE(err.find("--bogus"), std::string::npos) << err;

  Options o2;
  EXPECT_FALSE(parse({"--help", "--not-a-flag=2"}, o2, err));
  EXPECT_NE(err.find("--not-a-flag"), std::string::npos) << err;

  // Valid flags after --help still parse (and --help still wins).
  Options o3;
  EXPECT_TRUE(parse({"--help", "--nodes=2"}, o3, err)) << err;
  EXPECT_TRUE(o3.show_help);
  EXPECT_EQ(o3.nodes, 2);
}

TEST(Cli, ThrowingParserNamesTheFlag) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prs_run"));
  argv.push_back(const_cast<char*>("--list"));
  argv.push_back(const_cast<char*>("--bogus=1"));
  try {
    parse_options_or_throw(static_cast<int>(argv.size()), argv.data());
    FAIL() << "expected prs::InvalidArgument";
  } catch (const prs::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
  }
}

TEST(Cli, NewAppsAccepted) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({"--app=dgemm", "--functional"}, o, err)) << err;
  EXPECT_TRUE(parse({"--app=stencil", "--functional"}, o, err)) << err;
  // Stencil checkpointing is allowed (it snapshots through run_iterative).
  EXPECT_TRUE(parse({"--app=stencil", "--functional", "--checkpoint-every=2",
                     "--checkpoint-dir=/tmp/ck"},
                    o, err))
      << err;
}

TEST(Cli, ClientFlagValidation) {
  Options o;
  std::string err;
  // Client actions need --server.
  EXPECT_FALSE(parse({"--submit"}, o, err));
  EXPECT_NE(err.find("--server"), std::string::npos) << err;
  // --server needs an action.
  Options o2;
  EXPECT_FALSE(parse({"--server=/tmp/x.sock"}, o2, err));
  // At most one action.
  Options o3;
  EXPECT_FALSE(parse({"--server=/tmp/x.sock", "--submit", "--wait-job=3"},
                     o3, err));
  // A full submit line parses.
  Options o4;
  EXPECT_TRUE(parse({"--server=/tmp/x.sock", "--tenant=alice", "--submit",
                     "--app=kmeans", "--gpu-mem=1048576"},
                    o4, err))
      << err;
  EXPECT_EQ(o4.tenant, "alice");
  EXPECT_EQ(o4.gpu_mem_bytes, 1048576u);
}

TEST(Cli, OptionsMapToJobSpec) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--app=gmm", "--testbed=bigred2", "--nodes=3",
                     "--gpus=2", "--points=777", "--policy=adaptive",
                     "--functional", "--seed=5"},
                    o, err))
      << err;
  svc::JobSpec s = to_job_spec(o);
  EXPECT_EQ(s.app, "gmm");
  EXPECT_EQ(s.testbed, "bigred2");
  EXPECT_EQ(s.policy, "adaptive");
  EXPECT_EQ(s.nodes, 3);
  EXPECT_EQ(s.gpus, 2);
  EXPECT_EQ(s.points, 777u);
  EXPECT_TRUE(s.functional);
  EXPECT_EQ(s.seed, 5u);
  EXPECT_EQ(s.vgpus_needed(), 6);
  EXPECT_NO_THROW(s.validate());
}

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

/// Runs the prs_run binary of this build tree with `args`.
RunResult run_prs_run(const std::string& args) {
  const std::string cmd = std::string(PRS_RUN_BINARY) + " " + args + " 2>&1";
  RunResult r;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), p)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = ::pclose(p);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(Cli, FftWithDefaultColsIsRejectedAtValidation) {
  // Default --cols=10000 is not an FFT size: the spec must be refused at
  // validation with a typed error naming the flag, before any kernel runs.
  const RunResult r = run_prs_run("--app=fft");
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("error: fft needs --cols"), std::string::npos)
      << r.output;
}

TEST(Cli, FftWithPowerOfTwoColsStillRuns) {
  const RunResult r = run_prs_run("--app=fft --cols=1024");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("result digest:"), std::string::npos) << r.output;
}

}  // namespace
}  // namespace prs::tools
