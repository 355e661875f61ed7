// Shared pieces of the end-to-end benchmark: the simulated deployment, the
// seeded inputs, the correctness checks every workload runs, the computed
// operation counts, and the metric record the benchmark prints.
//
// The benchmark drives the program only through its public library API;
// nothing here reaches into a module's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/diagnet.h"
#include "data/dataset.h"
#include "data/feature_space.h"
#include "data/split.h"
#include "netsim/simulator.h"
#include "obs/obs.h"
#include "util/status.h"

namespace perfbench {

namespace core = diagnet::core;
namespace data = diagnet::data;
namespace netsim = diagnet::netsim;
namespace nn = diagnet::nn;
namespace obs = diagnet::obs;
namespace util = diagnet::util;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Which output the run deliberately corrupts before checking it, so the
/// benchmark's own tests can show that every check fails the run.
enum class Inject { kNone, kRanking, kBundle, kCount };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::kNone;
};

/// One printed metric. Order of insertion is the order printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;  // NaN when absent

 private:
  std::vector<Metric> items_;
};

/// Outcome of a workload: the numbers plus the operation tally of the
/// result line. Every failed check adds to `failed` and to `errors`.
struct RunResult {
  Metrics end_to_end;
  Metrics per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what, std::uint64_t count = 1);
};

/// The simulated Internet deployment is fixed across runs (like the
/// hardware of a serving fleet); `--seed` selects the campaigns, request
/// pools and schedules measured on it.
constexpr std::uint64_t kDeploymentSeed = 42;

/// Built in place and never moved: the simulator's path model and the
/// feature space keep references into the topology it owns.
struct Deployment {
  netsim::Simulator sim;
  data::FeatureSpace fs;
  Deployment()
      : sim(netsim::Simulator::make_default(kDeploymentSeed)),
        fs(sim.topology()) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

/// Times of one set-up: the netsim calibration, campaign generation and
/// hidden-landmark split, each a public call.
struct CampaignTimes {
  double calibrate_s = 0.0;
  double generate_s = 0.0;
  double split_s = 0.0;
  std::size_t samples = 0;
};

/// simulate -> calibrate -> generate -> split for one campaign seed.
std::unique_ptr<Deployment> make_deployment(CampaignTimes* times);
data::Dataset generate(const Deployment& d, std::size_t samples,
                       std::uint64_t seed, CampaignTimes* times);
data::DataSplit split(const Deployment& d, const data::Dataset& full,
                      std::uint64_t seed, CampaignTimes* times);

/// Model config used by every workload: Table I defaults with early
/// stopping disabled, so each training runs exactly `general_epochs` and
/// `special_epochs` epochs whatever the campaign — the timed work is fixed.
core::DiagNetConfig fixed_work_config(std::size_t general_epochs,
                                      std::size_t special_epochs);

/// train_general + one specialise per service. Step counts come from the
/// trainer's own `trainer.step` spans, so they are 0 with telemetry off.
struct TrainTimes {
  double general_s = 0.0;
  double specialize_s = 0.0;
  std::size_t general_epochs = 0;
  std::size_t specialize_epochs = 0;  // summed over services
  std::uint64_t general_steps = 0;
  std::uint64_t special_steps = 0;
};
TrainTimes train_model(core::DiagNetModel& model, const Deployment& d,
                       const data::Dataset& train);

/// One diagnosis request per sample: the full fleet, or one of a few
/// seeded partial fleets (landmark churn) for a seeded share of requests.
struct RequestSet {
  std::vector<core::DiagnoseRequest> requests;
  std::vector<std::size_t> truth;    // primary cause per request
  std::vector<bool> cause_new;       // cause at a landmark hidden in training
  std::vector<bool> full_fleet;
};
RequestSet make_requests(const Deployment& d, const data::DataSplit& split,
                         const std::vector<data::Sample>& samples,
                         double partial_share, std::uint64_t seed);

/// Recall@1, @5 and @5 on new-landmark causes (eval::recall_at_k) over the
/// full-fleet requests of one or more request sets, so several models'
/// evaluations can be pooled.
struct RecallTally {
  std::vector<std::vector<std::size_t>> rankings, rankings_new;
  std::vector<std::size_t> truth, truth_new;
  void add(const RequestSet& set,
           const std::vector<core::DiagnoseResponse>& responses);
  void write(Metrics& out) const;
};

/// Batched diagnosis must equal DiagNetModel::diagnose bit for bit
/// (scores, ranking, attention); mismatches go to *mismatches.
void check_batch_equals_single(core::DiagNetModel& model,
                               const std::vector<core::DiagnoseRequest>& probe,
                               Inject inject, std::uint64_t* mismatches,
                               RunResult& result);

/// Latency (ms) of each single DiagNetModel::diagnose call over `passes`
/// passes of `requests`, in call order.
std::vector<double> time_single_calls(
    core::DiagNetModel& model,
    const std::vector<core::DiagnoseRequest>& requests, std::size_t passes);

/// Statistics over consecutive windows of `window` single-call latencies:
/// the median of the window medians, the lower quartile of the window p99s
/// and the median of the window call rates. A call takes about 0.2 ms, so
/// one interrupt or preemption sets a window's p99; the lower quartile
/// reads the tail of the calls themselves. A slower program raises every
/// window.
struct WindowedLatency {
  double p50 = 0.0, p99 = 0.0, calls_per_s = 0.0;
};
WindowedLatency windowed_latency(const std::vector<double>& samples_ms,
                                 std::size_t window);

/// Save -> load through the model registry, then the reloaded bundle must
/// rank `probe` identically to the original.
void check_bundle_round_trip(core::DiagNetModel& model,
                             const data::FeatureSpace& fs,
                             const std::vector<core::DiagnoseRequest>& probe,
                             Inject inject, RunResult& result);

/// Repeated BatchDiagnoser passes over `requests` for at least
/// `min_seconds` (and at least three passes); returns the throughput of
/// the fastest pass in rows/s, since every pass repeats the same work.
/// `responses` receives the last pass.
double eval_passes(core::DiagNetModel& model,
                   const std::vector<core::DiagnoseRequest>& requests,
                   double min_seconds,
                   std::vector<core::DiagnoseResponse>* responses);

/// Operation counts computed from the model's layer shapes (not measured).
struct OpCounts {
  double train_flop_per_step = 0.0;     // forward + full backward + update
  double train_bytes_per_step = 0.0;
  double special_flop_per_step = 0.0;   // frozen representation
  double infer_flop_per_row = 0.0;      // forward + input-only backward
  double infer_bytes_per_row = 0.0;
};
OpCounts op_counts(const nn::CoarseNetConfig& config, std::size_t landmarks,
                   std::size_t batch_size);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);
/// Percentile of a log-linear histogram, interpolated linearly inside the
/// bucket that holds the rank (Snapshot::percentile returns the bucket
/// midpoint, which repeats exactly from run to run), clamped to the exact
/// observed min/max. q in [0, 1]; 0 when empty.
double interpolated_percentile(const obs::LogLinearHistogram::Snapshot& snap,
                               double q);
double peak_rss_mib();

/// Obs snapshot helpers for the traced run (0 when the name is absent).
double span_total_ms(const std::string& span);
double span_mean_ms(const std::string& span);
std::uint64_t span_count(const std::string& span);
std::uint64_t counter_value(const std::string& name);
double tail_percentile_ms(const std::string& name, double q);

}  // namespace perfbench
