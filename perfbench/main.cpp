// perfbench: the end-to-end benchmark of the DiagNet program.
//
//   perfbench --workload train|serve_open|serve_closed --seed N
//             --seconds S --trace 0|1 [--git-sha SHA] [--trace-file PATH]
//             [--inject ranking|bundle|count]
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it turns
// telemetry on at run time and prints every per-layer metric instead. The
// last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// A failed output check makes `correct` false and the exit code 1.
// --inject corrupts one output on purpose (see perfbench/test_perfbench.py).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "obs/obs.h"
#include "tensor/dispatch.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Printed names and units; BENCHMARK.json lists the same names.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"peak_rss_mib", "MiB"},
    {"train_s", "s"},          {"eval_samples_per_s", "1/s"},
    {"recall_at1", "ratio"},   {"recall_at5", "ratio"},
    {"recall_at5_new", "ratio"}, {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},  {"ok_share", "ratio"},
    {"closed_rps", "1/s"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"netsim.calibrate_s", "s"},
    {"data.generate_s", "s"},
    {"data.generate_samples_per_s", "1/s"},
    {"data.split_s", "s"},
    {"nn.general_train_s", "s"},
    {"nn.general_epochs", "count"},
    {"nn.general_steps", "count"},
    {"nn.specialize_s", "s"},
    {"nn.specialize_epochs", "count"},
    {"nn.step_ms", "ms"},
    {"nn.step.gather_ms", "ms"},
    {"nn.step.forward_ms", "ms"},
    {"nn.step.backward_ms", "ms"},
    {"nn.step.reduce_ms", "ms"},
    {"tensor.train_gflop", "GFLOP"},
    {"tensor.train_gflop_per_s", "GFLOP/s"},
    {"tensor.train_mbyte_per_step", "MB"},
    {"tensor.infer_mflop_per_row", "MFLOP"},
    {"tensor.infer_kbyte_per_row", "kB"},
    {"tensor.infer_gflop_per_s", "GFLOP/s"},
    {"forest.fit_s", "s"},
    {"forest.score_ms", "ms"},
    {"core.batch_s", "s"},
    {"core.rows", "count"},
    {"core.encode_ms", "ms"},
    {"core.attention_ms", "ms"},
    {"core.score_ms", "ms"},
    {"core.bitexact_mismatches", "count"},
    {"serve.accepted", "count"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.completed", "count"},
    {"serve.batches", "count"},
    {"serve.batch_size_mean", "rows"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.inference_p50_ms", "ms"},
    {"serve.write_back_ms", "ms"},
    {"serve.server_latency_p50_ms", "ms"},
    {"serve.server_latency_p99_ms", "ms"},
    {"serve.reactor.requests", "count"},
    {"serve.reactor.responses", "count"},
    {"serve.reactor.protocol_errors", "count"},
    {"serve.reactor.backpressure_stalls", "count"},
    {"serve.reactor.errors", "count"},
    {"serve.wire.parse_us", "us"},
    {"serve.wire.format_us", "us"},
    {"serve.loadgen.lag_s", "s"},
    {"serve.loadgen.sent", "count"},
    {"serve.loadgen.connected", "count"},
    {"obs.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload train|serve_open|serve_closed "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
               "[--trace-file PATH] [--inject ranking|bundle|count]\n";
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string git_sha = "unknown", trace_file;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else if (flag == "--inject") {
      if (value == "ranking") opt.inject = Inject::kRanking;
      else if (value == "bundle") opt.inject = Inject::kBundle;
      else if (value == "count") opt.inject = Inject::kCount;
      else usage("unknown --inject " + value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  // Run metadata: numbers from different hardware classes or builds must
  // never be compared, so every result carries what it was measured on.
  std::printf(
      "meta {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%ld,\"hardware_threads\":%u,\"kernel_tier\":\"%s\","
      "\"cpu_features\":\"%s\",\"build_type\":\"%s\",\"git_sha\":\"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(),
      diagnet::tensor::active_kernel_tier_name(),
      diagnet::tensor::cpu_features_string().c_str(), PERFBENCH_BUILD_TYPE,
      git_sha.c_str());
  std::fflush(stdout);

  RunResult result;
  if (opt.workload == "train") {
    result = run_train(opt);
  } else if (opt.workload == "serve_open") {
    result = run_serve(opt, /*open_loop=*/true);
  } else if (opt.workload == "serve_closed") {
    result = run_serve(opt, /*open_loop=*/false);
  } else {
    usage("unknown workload " + opt.workload);
  }
  result.end_to_end.set("peak_rss_mib", peak_rss_mib(), "MiB");
  if (!trace_file.empty() && opt.trace &&
      !diagnet::obs::write_trace_file(trace_file))
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());

  const Metrics& source = opt.trace ? result.per_layer : result.end_to_end;
  const auto& names = opt.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const double v = source.get(name);
    if (std::isnan(v) && !opt.trace)
      result.fail("end-to-end metric " + name + " was not measured");
    const double value = std::isnan(v) ? 0.0 : v;
    std::printf("  %-36s %16.6g %s\n", name.c_str(), value, unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(value) +
               ", \"unit\": \"" + unit + "\"}";
  }
  for (const std::string& e : result.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  const bool correct = result.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(
          std::max<std::uint64_t>(result.attempted, 1)),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}
