#include "svc/job_spec.hpp"

#include <bit>
#include <cctype>
#include <charconv>

#include "common/error.hpp"
#include "fault/fault_plan.hpp"
#include "simdev/device_spec.hpp"

namespace prs::svc {
namespace {

bool parse_u64(const std::string& v, std::uint64_t& out) {
  const char* b = v.data();
  const char* e = b + v.size();
  auto [p, ec] = std::from_chars(b, e, out);
  return ec == std::errc() && p == e;
}

bool parse_size(const std::string& v, std::size_t& out) {
  std::uint64_t u = 0;
  if (!parse_u64(v, u)) return false;
  out = static_cast<std::size_t>(u);
  return true;
}

bool parse_int(const std::string& v, int& out) {
  const char* b = v.data();
  const char* e = b + v.size();
  auto [p, ec] = std::from_chars(b, e, out);
  return ec == std::errc() && p == e;
}

bool parse_double(const std::string& v, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(v, &pos);
    return pos == v.size();
  } catch (...) {
    return false;
  }
}

bool parse_bool(const std::string& v, bool& out) {
  if (v == "1" || v == "true") {
    out = true;
    return true;
  }
  if (v == "0" || v == "false") {
    out = false;
    return true;
  }
  return false;
}

/// Shortest text that parses back to exactly `v`.
std::string exact_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// A fault spec as one whitespace-free wire token. A valid spec travels in
/// its canonical form (exact doubles); an invalid one keeps its text with
/// each whitespace character turned into '?', which no clause accepts, so
/// the server rejects it just as validate() would.
std::string fault_spec_token(const std::string& spec) {
  try {
    return fault::FaultPlan::parse(spec).to_spec();
  } catch (const InvalidArgument&) {
    std::string out = spec;
    for (char& c : out) {
      if (std::isspace(static_cast<unsigned char>(c))) c = '?';
    }
    return out;
  }
}

bool known_app(const std::string& a) {
  return a == "cmeans" || a == "kmeans" || a == "gmm" || a == "gemv" ||
         a == "dgemm" || a == "fft" || a == "wordcount" || a == "stencil";
}

}  // namespace

core::NodeConfig JobSpec::node_config() const {
  core::NodeConfig cfg;
  if (testbed == "bigred2") {
    cfg.cpu = simdev::bigred2_cpu();
    cfg.gpu = simdev::bigred2_k20();
  } else if (testbed == "phi") {
    cfg.gpu = simdev::xeon_phi_5110p();
  }
  cfg.gpus_per_node = gpus;
  return cfg;
}

core::JobConfig JobSpec::job_config() const {
  core::JobConfig cfg;
  cfg.mode = functional ? core::ExecutionMode::kFunctional
                        : core::ExecutionMode::kModeled;
  cfg.scheduling = policy == "dynamic" ? core::SchedulingMode::kDynamic
                                       : core::SchedulingMode::kStatic;
  cfg.use_cpu = !gpu_only;
  cfg.use_gpu = !cpu_only;
  cfg.cpu_fraction_override = cpu_fraction;
  cfg.pipeline_depth = pipeline_depth;
  return cfg;
}

void JobSpec::validate() const {
  if (!known_app(app)) {
    throw InvalidArgument("unknown app '" + app +
                          "' (cmeans|kmeans|gmm|gemv|dgemm|fft|wordcount|"
                          "stencil)");
  }
  if (testbed != "delta" && testbed != "bigred2" && testbed != "phi") {
    throw InvalidArgument("unknown testbed '" + testbed + "'");
  }
  if (policy != "static" && policy != "dynamic" && policy != "adaptive") {
    throw InvalidArgument("unknown policy '" + policy + "'");
  }
  if (nodes < 1) throw InvalidArgument("nodes must be >= 1");
  if (gpus < 0) throw InvalidArgument("gpus must be >= 0");
  if (points == 0) throw InvalidArgument("points must be >= 1");
  if (dims == 0) throw InvalidArgument("dims must be >= 1");
  if (clusters < 1) throw InvalidArgument("clusters must be >= 1");
  if (iterations < 1) throw InvalidArgument("iterations must be >= 1");
  if (rows == 0 || cols == 0) throw InvalidArgument("rows/cols must be >= 1");
  // The FFT kernels take cols as the transform size; catch a bad size here,
  // not after admission from inside the kernel.
  if (app == "fft" && (cols < 2 || !std::has_single_bit(cols))) {
    throw InvalidArgument("fft needs --cols (the FFT size) to be a power of "
                          "two >= 2, got " + std::to_string(cols));
  }
  if (gpu_only && cpu_only) {
    throw InvalidArgument("gpu_only and cpu_only are mutually exclusive");
  }
  if (gpu_only && gpus == 0) {
    throw InvalidArgument("gpu_only requires gpus >= 1");
  }
  if (cpu_fraction > 1.0) {
    throw InvalidArgument("cpu_fraction must be in [0,1]");
  }
  if ((checkpoint_every > 0 || resume) && checkpoint_dir.empty()) {
    throw InvalidArgument("checkpoint_every/resume require checkpoint_dir");
  }
  if (!checkpoint_dir.empty()) {
    if (app != "cmeans" && app != "kmeans" && app != "gmm" &&
        app != "stencil") {
      throw InvalidArgument(
          "checkpointing supports the iterative apps only");
    }
    if (!functional) {
      throw InvalidArgument("checkpointing requires functional mode");
    }
  }
  if (app == "stencil" && !functional) {
    throw InvalidArgument("stencil requires functional mode");
  }
  if (pipeline_depth < 1 || pipeline_depth > 64) {
    throw InvalidArgument("pipeline_depth must be in [1,64]");
  }
  if (pipeline_depth > 1 && policy == "dynamic") {
    throw InvalidArgument("pipeline_depth > 1 requires a static-dispatch "
                          "policy (static|adaptive)");
  }
  // A malformed fault spec is a bad job, rejected before admission rather
  // than failing once the job runs.
  try {
    (void)fault::FaultPlan::parse(fault_spec);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(std::string("bad fault_spec: ") + e.what());
  }
}

std::string JobSpec::to_tokens() const {
  const JobSpec def;
  std::string out;
  auto emit = [&out](const std::string& k, const std::string& v) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += v;
  };
  if (app != def.app) emit("app", app);
  if (testbed != def.testbed) emit("testbed", testbed);
  if (policy != def.policy) emit("policy", policy);
  if (nodes != def.nodes) emit("nodes", std::to_string(nodes));
  if (gpus != def.gpus) emit("gpus", std::to_string(gpus));
  if (points != def.points) emit("points", std::to_string(points));
  if (dims != def.dims) emit("dims", std::to_string(dims));
  if (clusters != def.clusters) emit("clusters", std::to_string(clusters));
  if (iterations != def.iterations) {
    emit("iterations", std::to_string(iterations));
  }
  if (rows != def.rows) emit("rows", std::to_string(rows));
  if (cols != def.cols) emit("cols", std::to_string(cols));
  if (functional != def.functional) emit("functional", "1");
  if (gpu_only != def.gpu_only) emit("gpu_only", "1");
  if (cpu_only != def.cpu_only) emit("cpu_only", "1");
  if (cpu_fraction != def.cpu_fraction) {
    emit("cpu_fraction", exact_double(cpu_fraction));
  }
  if (seed != def.seed) emit("seed", std::to_string(seed));
  if (pipeline_depth != def.pipeline_depth) {
    emit("pipeline_depth", std::to_string(pipeline_depth));
  }
  if (const std::string f = fault_spec_token(fault_spec); !f.empty()) {
    emit("fault_spec", f);
  }
  if (fault_seed != def.fault_seed) {
    emit("fault_seed", std::to_string(fault_seed));
  }
  if (checkpoint_every != def.checkpoint_every) {
    emit("checkpoint_every", std::to_string(checkpoint_every));
  }
  if (!checkpoint_dir.empty()) emit("checkpoint_dir", checkpoint_dir);
  if (resume) emit("resume", "1");
  if (gpu_mem_bytes != def.gpu_mem_bytes) {
    emit("gpu_mem_bytes", std::to_string(gpu_mem_bytes));
  }
  return out;
}

bool apply_job_spec_field(JobSpec& spec, const std::string& key,
                          const std::string& value, std::string& error) {
  bool ok = true;
  if (key == "app") {
    spec.app = value;
  } else if (key == "testbed") {
    spec.testbed = value;
  } else if (key == "policy") {
    spec.policy = value;
  } else if (key == "nodes") {
    ok = parse_int(value, spec.nodes);
  } else if (key == "gpus") {
    ok = parse_int(value, spec.gpus);
  } else if (key == "points" || key == "lines" || key == "signals") {
    ok = parse_size(value, spec.points);
  } else if (key == "dims") {
    ok = parse_size(value, spec.dims);
  } else if (key == "clusters" || key == "components") {
    ok = parse_int(value, spec.clusters);
  } else if (key == "iterations") {
    ok = parse_int(value, spec.iterations);
  } else if (key == "rows") {
    ok = parse_size(value, spec.rows);
  } else if (key == "cols") {
    ok = parse_size(value, spec.cols);
  } else if (key == "functional") {
    ok = parse_bool(value, spec.functional);
  } else if (key == "gpu_only") {
    ok = parse_bool(value, spec.gpu_only);
  } else if (key == "cpu_only") {
    ok = parse_bool(value, spec.cpu_only);
  } else if (key == "cpu_fraction") {
    ok = parse_double(value, spec.cpu_fraction);
  } else if (key == "seed") {
    ok = parse_u64(value, spec.seed);
  } else if (key == "pipeline_depth") {
    ok = parse_int(value, spec.pipeline_depth);
  } else if (key == "fault_spec") {
    spec.fault_spec = value;
  } else if (key == "fault_seed") {
    ok = parse_u64(value, spec.fault_seed);
  } else if (key == "checkpoint_every") {
    ok = parse_int(value, spec.checkpoint_every);
  } else if (key == "checkpoint_dir") {
    spec.checkpoint_dir = value;
  } else if (key == "resume") {
    ok = parse_bool(value, spec.resume);
  } else if (key == "gpu_mem_bytes") {
    ok = parse_u64(value, spec.gpu_mem_bytes);
  } else {
    error = "unknown job field: " + key;
    return false;
  }
  if (!ok) {
    error = "invalid value for job field " + key + ": " + value;
    return false;
  }
  return true;
}

JobSpec parse_job_spec(const std::map<std::string, std::string>& fields) {
  JobSpec spec;
  std::string error;
  for (const auto& [k, v] : fields) {
    if (!apply_job_spec_field(spec, k, v, error)) {
      throw InvalidArgument(error);
    }
  }
  // Deliberately no validate() here: a well-formed SUBMIT describing a bad
  // job is an admission decision (code=bad_spec), not a protocol error.
  return spec;
}

JobSpec parse_job_spec_tokens(const std::string& tokens) {
  std::map<std::string, std::string> fields;
  std::size_t pos = 0;
  while (pos < tokens.size()) {
    auto sp = tokens.find(' ', pos);
    if (sp == std::string::npos) sp = tokens.size();
    const std::string tok = tokens.substr(pos, sp - pos);
    pos = sp + 1;
    if (tok.empty()) continue;
    auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw InvalidArgument("malformed job spec token '" + tok + "'");
    }
    fields[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return parse_job_spec(fields);
}

}  // namespace prs::svc
