#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/batch_diagnoser.h"
#include "core/registry.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  items_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const Metric& m : items_)
    if (m.name == name) return m.value;
  return std::nan("");
}

void RunResult::fail(const std::string& what, std::uint64_t count) {
  failed += count;
  errors.push_back(what);
}

std::unique_ptr<Deployment> make_deployment(CampaignTimes* times) {
  obs::Span span("bench.netsim.calibrate");
  const auto start = Clock::now();
  auto d = std::make_unique<Deployment>();
  d->sim.calibrate_qoe();
  if (times != nullptr) times->calibrate_s = seconds_since(start);
  return d;
}

data::Dataset generate(const Deployment& d, std::size_t samples,
                       std::uint64_t seed, CampaignTimes* times) {
  obs::Span span("bench.data.generate");
  data::CampaignConfig campaign;
  campaign.nominal_samples = samples / 3;
  campaign.fault_samples = samples - campaign.nominal_samples;
  campaign.seed = seed;
  const auto start = Clock::now();
  data::Dataset full = data::generate_campaign(d.sim, d.fs, campaign);
  if (times != nullptr) {
    times->generate_s = seconds_since(start);
    times->samples = full.size();
  }
  return full;
}

data::DataSplit split(const Deployment& d, const data::Dataset& full,
                      std::uint64_t seed, CampaignTimes* times) {
  obs::Span span("bench.data.split");
  data::SplitConfig config;
  config.seed = seed;
  const auto start = Clock::now();
  data::DataSplit out = data::make_split(full, d.fs, config);
  if (times != nullptr) times->split_s = seconds_since(start);
  return out;
}

core::DiagNetConfig fixed_work_config(std::size_t general_epochs,
                                      std::size_t special_epochs) {
  core::DiagNetConfig config = core::DiagNetConfig::defaults();
  config.trainer.max_epochs = general_epochs;
  config.trainer.patience = general_epochs;
  config.specialization.max_epochs = special_epochs;
  config.specialization.patience = special_epochs;
  return config;
}

TrainTimes train_model(core::DiagNetModel& model, const Deployment& d,
                       const data::Dataset& train) {
  TrainTimes times;
  const std::uint64_t steps0 = span_count("trainer.step");
  {
    obs::Span span("bench.nn.train_general");
    const auto start = Clock::now();
    times.general_epochs = model.train_general(train).epochs_run();
    times.general_s = seconds_since(start);
  }
  const std::uint64_t steps1 = span_count("trainer.step");
  {
    obs::Span span("bench.nn.specialize");
    const auto start = Clock::now();
    for (std::size_t s = 0; s < d.sim.services().size(); ++s)
      times.specialize_epochs += model.specialize(s, train).epochs_run();
    times.specialize_s = seconds_since(start);
  }
  times.general_steps = steps1 - steps0;
  times.special_steps = span_count("trainer.step") - steps1;
  return times;
}

RequestSet make_requests(const Deployment& d, const data::DataSplit& split,
                         const std::vector<data::Sample>& samples,
                         double partial_share, std::uint64_t seed) {
  // A few partial fleets, each missing two landmarks: the landmark churn
  // of a deployment whose probes come and go.
  util::Rng rng(seed);
  const std::size_t landmarks = d.fs.landmark_count();
  std::vector<std::vector<bool>> fleets;
  for (int f = 0; f < 3; ++f) {
    std::vector<bool> mask(landmarks, true);
    for (int drop = 0; drop < 2; ++drop)
      mask[rng.uniform_index(landmarks)] = false;
    fleets.push_back(std::move(mask));
  }
  RequestSet set;
  for (const data::Sample& sample : samples) {
    if (!sample.is_faulty()) continue;
    core::DiagnoseRequest request;
    request.features = sample.features;
    request.service = sample.service;
    const bool partial = rng.uniform() < partial_share;
    if (partial)
      request.landmark_available = fleets[rng.uniform_index(fleets.size())];
    set.requests.push_back(std::move(request));
    set.truth.push_back(sample.primary_cause);
    set.cause_new.push_back(split.cause_is_new(d.fs, sample));
    set.full_fleet.push_back(!partial);
  }
  return set;
}

void RecallTally::add(const RequestSet& set,
                      const std::vector<core::DiagnoseResponse>& responses) {
  for (std::size_t i = 0; i < set.requests.size(); ++i) {
    if (!set.full_fleet[i] || !responses[i].ok()) continue;
    rankings.push_back(responses[i].diagnosis.ranking);
    truth.push_back(set.truth[i]);
    if (set.cause_new[i]) {
      rankings_new.push_back(responses[i].diagnosis.ranking);
      truth_new.push_back(set.truth[i]);
    }
  }
}

void RecallTally::write(Metrics& out) const {
  out.set("recall_at1", diagnet::eval::recall_at_k(rankings, truth, 1),
          "ratio");
  out.set("recall_at5", diagnet::eval::recall_at_k(rankings, truth, 5),
          "ratio");
  out.set("recall_at5_new",
          diagnet::eval::recall_at_k(rankings_new, truth_new, 5), "ratio");
}

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_diagnosis(const core::Diagnosis& a, const core::Diagnosis& b) {
  return a.ranking == b.ranking && same_bits(a.scores, b.scores) &&
         same_bits(a.coarse_probs, b.coarse_probs) &&
         same_bits(a.attention, b.attention) &&
         std::memcmp(&a.w_unknown, &b.w_unknown, sizeof(double)) == 0;
}

/// The deliberate corruption used by the benchmark's own tests: the two
/// best causes trade places, as a broken ranking would.
void flip_ranking(core::DiagnoseResponse& response) {
  auto& ranking = response.diagnosis.ranking;
  if (ranking.size() >= 2) std::swap(ranking[0], ranking[1]);
}

}  // namespace

void check_batch_equals_single(core::DiagNetModel& model,
                               const std::vector<core::DiagnoseRequest>& probe,
                               Inject inject, std::uint64_t* mismatches,
                               RunResult& result) {
  std::vector<core::DiagnoseResponse> batched;
  {
    obs::Span span("bench.core.batch_probe");
    batched = core::BatchDiagnoser(model).run(probe);
  }
  if (inject == Inject::kRanking && !batched.empty()) flip_ranking(batched[0]);
  *mismatches = 0;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const core::DiagnoseResponse single = model.diagnose(probe[i]);
    result.attempted += 2;
    if (!single.ok() || !batched[i].ok()) {
      result.fail("probe request " + std::to_string(i) + " not ok");
      continue;
    }
    if (!same_diagnosis(single.diagnosis, batched[i].diagnosis)) ++*mismatches;
  }
  if (*mismatches > 0)
    result.fail("batched diagnosis differs from diagnose() on " +
                    std::to_string(*mismatches) + " probe request(s)",
                *mismatches);
}

std::vector<double> time_single_calls(
    core::DiagNetModel& model,
    const std::vector<core::DiagnoseRequest>& requests, std::size_t passes) {
  std::vector<double> ms;
  ms.reserve(requests.size() * passes);
  for (std::size_t pass = 0; pass < passes; ++pass)
    for (const core::DiagnoseRequest& request : requests) {
      const auto start = Clock::now();
      model.diagnose(request);
      ms.push_back(seconds_since(start) * 1000.0);
    }
  return ms;
}

WindowedLatency windowed_latency(const std::vector<double>& samples_ms,
                                 std::size_t window) {
  std::vector<double> p50, p99, rate;
  for (std::size_t begin = 0; begin + window <= samples_ms.size();
       begin += window) {
    const std::vector<double> w(samples_ms.begin() + begin,
                                samples_ms.begin() + begin + window);
    double total_ms = 0.0;
    for (const double ms : w) total_ms += ms;
    p50.push_back(percentile(w, 0.50));
    p99.push_back(percentile(w, 0.99));
    rate.push_back(static_cast<double>(window) / (total_ms / 1000.0));
  }
  return {median(p50), percentile(p99, 0.25), median(rate)};
}

void check_bundle_round_trip(core::DiagNetModel& model,
                             const data::FeatureSpace& fs,
                             const std::vector<core::DiagnoseRequest>& probe,
                             Inject inject, RunResult& result) {
  std::stringstream bundle;
  if (util::Status s = core::try_save_model(model, bundle); !s.ok()) {
    result.fail("save: " + s.to_string());
    return;
  }
  std::string bytes = bundle.str();
  if (inject == Inject::kBundle) bytes[bytes.size() / 2] ^= 0x5a;
  std::istringstream in(bytes);
  auto loaded = core::try_load_model(in, fs);
  result.attempted += probe.size();
  if (!loaded.ok()) {
    result.fail("reload: " + loaded.status().to_string(), probe.size());
    return;
  }
  const auto before = core::BatchDiagnoser(model).run(probe);
  const auto after = core::BatchDiagnoser(*loaded.value()).run(probe);
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < probe.size(); ++i)
    if (!after[i].ok() ||
        after[i].diagnosis.ranking != before[i].diagnosis.ranking)
      ++differ;
  if (differ > 0)
    result.fail("reloaded bundle ranks " + std::to_string(differ) +
                    " probe request(s) differently",
                differ);
}

double eval_passes(core::DiagNetModel& model,
                   const std::vector<core::DiagnoseRequest>& requests,
                   double min_seconds,
                   std::vector<core::DiagnoseResponse>* responses) {
  const core::BatchDiagnoser diagnoser(model);
  std::vector<double> rates;
  const auto phase = Clock::now();
  while (rates.size() < 3 || seconds_since(phase) < min_seconds) {
    obs::Span span("bench.core.batch_run");
    const auto start = Clock::now();
    *responses = diagnoser.run(requests);
    rates.push_back(static_cast<double>(requests.size()) /
                    seconds_since(start));
  }
  return *std::max_element(rates.begin(), rates.end());
}

OpCounts op_counts(const nn::CoarseNetConfig& config, std::size_t landmarks,
                   std::size_t batch_size) {
  // Counting rules (multiply-add = 2 FLOP, fp64 = 8 bytes):
  //  * convolution: L·f·(2k + 1) per row forward; the same again for the
  //    kernel gradient and for the input gradient;
  //  * pooling: min/max/avg L·f each, variance 3·L·f, each decile 3·f for
  //    its interpolation (sorting compares are not FLOPs); backward routes
  //    the same number of values;
  //  * FC layer d_in -> d_out: 2·d_in·d_out + 2·d_out forward (bias, ReLU),
  //    2·d_in·d_out each for the weight and the input gradient;
  //  * SGD/Nesterov update with weight decay and norm clipping: 11 FLOP
  //    and 6 fp64 accesses per trainable parameter per step;
  //  * bytes: every weight is read once per pass, every activation written
  //    once forward and read once backward, training gradients accumulate
  //    in one buffer per 16-row shard.
  const double L = static_cast<double>(landmarks);
  const double k = static_cast<double>(config.features_per_landmark);
  const double f = static_cast<double>(config.filters);
  double pool = 0.0;
  for (const nn::PoolOp op : config.pool_ops) {
    switch (op) {
      case nn::PoolOp::Min:
      case nn::PoolOp::Max:
      case nn::PoolOp::Avg: pool += L * f; break;
      case nn::PoolOp::Var: pool += 3.0 * L * f; break;
      default: pool += 3.0 * f; break;
    }
  }
  const double conv = L * f * (2.0 * k + 1.0);
  std::vector<double> dims = {
      static_cast<double>(config.pool_ops.size()) * f +
      static_cast<double>(config.local_features)};
  for (const std::size_t h : config.hidden)
    dims.push_back(static_cast<double>(h));
  dims.push_back(static_cast<double>(config.classes));

  double fc_fwd = 0.0, fc_mac = 0.0, fc_params = 0.0, tail_mac = 0.0,
         tail_params = 0.0, activations = L * f;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    fc_fwd += 2.0 * dims[i] * dims[i + 1] + 2.0 * dims[i + 1];
    fc_mac += 2.0 * dims[i] * dims[i + 1];
    fc_params += dims[i] * dims[i + 1] + dims[i + 1];
    activations += dims[i + 1];
    if (i > 0) {  // trainable once the representation is frozen
      tail_mac += 2.0 * dims[i] * dims[i + 1];
      tail_params += dims[i] * dims[i + 1] + dims[i + 1];
    }
  }
  activations += dims[0];
  const double conv_params = f * k + f;
  const double params = fc_params + conv_params;
  const double B = static_cast<double>(batch_size);
  const double shards = std::ceil(B / 16.0);

  OpCounts out;
  const double forward = conv + pool + fc_fwd;
  out.train_flop_per_step =
      B * (forward + 2.0 * fc_mac + pool + conv) + 11.0 * params;
  out.special_flop_per_step = B * (forward + 2.0 * tail_mac) +
                              11.0 * tail_params;
  out.train_bytes_per_step =
      8.0 * (params * (2.0 + 2.0 * shards + 6.0) + B * activations * 2.0 +
             B * (L * k + L));
  out.infer_flop_per_row = forward + fc_mac + pool + L * f * 2.0 * k;
  out.infer_bytes_per_row =
      8.0 * (2.0 * params / B + activations * 2.0 + 2.0 * (L * k + L));
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double interpolated_percentile(const obs::LogLinearHistogram::Snapshot& snap,
                               double q) {
  using H = obs::LogLinearHistogram;
  std::uint64_t total = 0;
  for (const std::uint64_t c : snap.buckets) total += c;
  if (total == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total - 1);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
    const std::uint64_t c = snap.buckets[i];
    if (c == 0 || static_cast<double>(below + c) <= rank) {
      below += c;
      continue;
    }
    if (i == 0 || i + 1 >= snap.buckets.size()) return H::bucket_midpoint(i);
    const std::size_t linear = i - 1;
    const int e = H::kMinExp2 + static_cast<int>(linear / H::kSubBuckets);
    const double sub = static_cast<double>(linear % H::kSubBuckets);
    const double lo = std::ldexp(1.0 + sub / H::kSubBuckets, e);
    const double hi = std::ldexp(1.0 + (sub + 1.0) / H::kSubBuckets, e);
    const double within =
        (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c);
    return std::clamp(lo + within * (hi - lo), snap.min, snap.max);
  }
  return snap.max;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

const obs::Histogram::Snapshot* find_span(
    const std::vector<std::pair<std::string, obs::Histogram::Snapshot>>& all,
    const std::string& span) {
  const std::string name = span + ".ms";
  for (const auto& [key, snap] : all)
    if (key == name) return &snap;
  return nullptr;
}

}  // namespace

double span_total_ms(const std::string& span) {
  const auto all = obs::Registry::instance().histograms();
  const auto* snap = find_span(all, span);
  return snap == nullptr || snap->stats.count() == 0
             ? 0.0
             : snap->stats.mean() * static_cast<double>(snap->stats.count());
}

double span_mean_ms(const std::string& span) {
  const auto all = obs::Registry::instance().histograms();
  const auto* snap = find_span(all, span);
  return snap == nullptr || snap->stats.count() == 0 ? 0.0
                                                      : snap->stats.mean();
}

std::uint64_t span_count(const std::string& span) {
  const auto all = obs::Registry::instance().histograms();
  const auto* snap = find_span(all, span);
  return snap == nullptr ? 0 : snap->stats.count();
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [key, value] : obs::Registry::instance().counters())
    if (key == name) return value;
  return 0;
}

double tail_percentile_ms(const std::string& name, double q) {
  for (const auto& [key, snap] : obs::Registry::instance().tail_histograms())
    if (key == name) return interpolated_percentile(snap, q);
  return 0.0;
}

}  // namespace perfbench
