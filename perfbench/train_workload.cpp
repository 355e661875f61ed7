// `train`: the operator's offline path. Seeded classic campaigns go
// through the hidden-landmark split; the general model, the per-service
// heads and the auxiliary forest are trained with a fixed number of
// epochs; BatchDiagnoser then ranks the evaluation set for recall@k.
//
// The path runs on five campaigns derived from the seed. train_s and
// setup_s are medians over them, and recall is pooled over the five
// models: a single model's recall moves by ±10 % from campaign to campaign
// (which epoch validates best is chaotic), and pooling keeps the reported
// figure a property of the code rather than of one draw. The evaluation
// set adds a held-out campaign of the same deployment to the test split,
// so sampling noise stays small next to that.
#include <algorithm>

#include "obs/obs.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kCampaigns = 5;
constexpr std::size_t kCampaignSamples = 6000;
constexpr std::size_t kHeldOutSamples = 12000;
constexpr std::size_t kGeneralEpochs = 12;
constexpr std::size_t kSpecialEpochs = 3;
constexpr std::size_t kProbePerCampaign = 1024;
constexpr double kProbePartialShare = 0.25;
/// Single-call latency: timed passes over each probe set, read in windows
/// of 128 consecutive calls (about 25 ms, one call above each window's
/// p99). Over 11 seeds, 128-call windows gave the steadiest run-to-run p99
/// of the sizes tried (64 to 4096).
constexpr std::size_t kTimedPasses = 6;
constexpr std::size_t kWindow = 128;

std::uint64_t derive(std::uint64_t seed, std::uint64_t campaign,
                     std::uint64_t stream) {
  return util::Rng(seed * 0x9e3779b97f4a7c15ULL + campaign * 0x100 + stream)
      .next_u64();
}

/// One campaign's inputs: everything made before training starts.
struct Inputs {
  std::unique_ptr<Deployment> deployment;
  data::DataSplit split;
  RequestSet eval;   // test split + held-out campaign, full fleet
  RequestSet probe;  // sampled from `eval`'s samples, some partial fleets
  CampaignTimes times;
};

Inputs set_up(std::uint64_t seed, std::size_t campaign) {
  Inputs in;
  in.deployment = make_deployment(&in.times);
  const Deployment& d = *in.deployment;
  const data::Dataset full =
      generate(d, kCampaignSamples, derive(seed, campaign, 1), &in.times);
  in.split = split(d, full, derive(seed, campaign, 2), &in.times);
  const data::Dataset held_out =
      generate(d, kHeldOutSamples, derive(seed, campaign, 3), nullptr);

  std::vector<data::Sample> pool = in.split.test.samples;
  pool.insert(pool.end(), held_out.samples.begin(), held_out.samples.end());
  in.eval = make_requests(d, in.split, pool, 0.0, derive(seed, campaign, 4));

  std::vector<data::Sample> faulty;
  for (const data::Sample& s : pool)
    if (s.is_faulty()) faulty.push_back(s);
  util::Rng rng(derive(seed, campaign, 5));
  std::vector<data::Sample> drawn;
  for (std::size_t i = 0; i < kProbePerCampaign && !faulty.empty(); ++i)
    drawn.push_back(faulty[rng.uniform_index(faulty.size())]);
  in.probe = make_requests(d, in.split, drawn, kProbePartialShare,
                           derive(seed, campaign, 6));
  return in;
}

std::unique_ptr<core::DiagNetModel> train(const Inputs& in,
                                          TrainTimes* times) {
  auto model = std::make_unique<core::DiagNetModel>(
      in.deployment->fs, fixed_work_config(kGeneralEpochs, kSpecialEpochs));
  *times = train_model(*model, *in.deployment, in.split.train);
  return model;
}

/// Checks and evaluation after training: recall, batch-vs-single
/// bit-exactness, bundle round trip. Adds single-call latencies.
void evaluate(core::DiagNetModel& model, const Inputs& in,
              double eval_seconds, const Options& opt, RunResult& result,
              RecallTally& tally, std::vector<double>& eval_rates,
              std::vector<double>& single_ms, std::uint64_t& mismatches) {
  std::vector<core::DiagnoseResponse> responses;
  eval_rates.push_back(
      eval_passes(model, in.eval.requests, eval_seconds, &responses));
  std::uint64_t not_ok = 0;
  for (const auto& r : responses) not_ok += r.ok() ? 0 : 1;
  result.attempted += responses.size();
  if (not_ok > 0) result.fail("evaluation responses not ok", not_ok);
  tally.add(in.eval, responses);

  std::uint64_t differ = 0;
  check_batch_equals_single(model, in.probe.requests, opt.inject, &differ,
                            result);
  mismatches += differ;
  // The check above already ran every probe request once: the timed
  // passes start warm.
  const std::vector<double> ms =
      time_single_calls(model, in.probe.requests, kTimedPasses);
  single_ms.insert(single_ms.end(), ms.begin(), ms.end());
  check_bundle_round_trip(model, in.deployment->fs, in.probe.requests,
                          opt.inject, result);
}

}  // namespace

void write_setup_layers(const CampaignTimes& t, Metrics& out) {
  out.set("netsim.calibrate_s", t.calibrate_s, "s");
  out.set("data.generate_s", t.generate_s, "s");
  out.set("data.generate_samples_per_s",
          static_cast<double>(t.samples) / t.generate_s, "1/s");
  out.set("data.split_s", t.split_s, "s");
}

void write_train_layers(const TrainTimes& t, const nn::CoarseNetConfig& net,
                        std::size_t landmarks, Metrics& out) {
  out.set("nn.general_train_s", t.general_s, "s");
  out.set("nn.general_epochs", static_cast<double>(t.general_epochs), "count");
  out.set("nn.general_steps", static_cast<double>(t.general_steps), "count");
  out.set("nn.specialize_s", t.specialize_s, "s");
  out.set("nn.specialize_epochs", static_cast<double>(t.specialize_epochs),
          "count");
  out.set("nn.step_ms", span_mean_ms("trainer.step"), "ms");
  out.set("nn.step.gather_ms", span_mean_ms("trainer.step.gather"), "ms");
  out.set("nn.step.forward_ms", span_mean_ms("trainer.step.forward"), "ms");
  out.set("nn.step.backward_ms", span_mean_ms("trainer.step.backward"), "ms");
  out.set("nn.step.reduce_ms", span_mean_ms("trainer.step.reduce"), "ms");
  out.set("forest.fit_s", span_total_ms("forest.fit") / 1000.0, "s");

  const OpCounts ops = op_counts(net, landmarks, 64);
  const double gflop =
      (static_cast<double>(t.general_steps) * ops.train_flop_per_step +
       static_cast<double>(t.special_steps) * ops.special_flop_per_step) /
      1e9;
  const double busy_s = (span_total_ms("trainer.step.forward") +
                         span_total_ms("trainer.step.backward")) /
                        1000.0;
  out.set("tensor.train_gflop", gflop, "GFLOP");
  out.set("tensor.train_gflop_per_s", busy_s > 0.0 ? gflop / busy_s : 0.0,
          "GFLOP/s");
  out.set("tensor.train_mbyte_per_step", ops.train_bytes_per_step / 1e6, "MB");
}

void write_core_layers(const nn::CoarseNetConfig& net, std::size_t landmarks,
                       Metrics& out) {
  const double rows =
      static_cast<double>(counter_value("diagnose.batch.samples"));
  out.set("core.batch_s", span_total_ms("diagnose.batch") / 1000.0, "s");
  out.set("core.rows", rows, "count");
  out.set("core.encode_ms", span_mean_ms("diagnose.batch.encode"), "ms");
  out.set("core.attention_ms", span_mean_ms("diagnose.batch.attention"), "ms");
  out.set("core.score_ms", span_mean_ms("diagnose.batch.score"), "ms");
  out.set("forest.score_ms", span_mean_ms("forest.score"), "ms");

  const OpCounts ops = op_counts(net, landmarks, 64);
  const double attention_s = span_total_ms("diagnose.batch.attention") / 1000.0;
  out.set("tensor.infer_mflop_per_row", ops.infer_flop_per_row / 1e6, "MFLOP");
  out.set("tensor.infer_kbyte_per_row", ops.infer_bytes_per_row / 1e3, "kB");
  out.set("tensor.infer_gflop_per_s",
          attention_s > 0.0 ? rows * ops.infer_flop_per_row / 1e9 / attention_s
                            : 0.0,
          "GFLOP/s");
}

RunResult run_train(const Options& opt) {
  RunResult result;
  const double eval_seconds =
      std::max(1.5, 0.15 * opt.seconds) / static_cast<double>(kCampaigns);
  RecallTally tally;
  std::vector<double> setup_s, train_s, eval_rates, single_ms;
  std::uint64_t mismatches = 0;

  if (!opt.trace) {
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      const auto start = Clock::now();
      const Inputs in = set_up(opt.seed, c);
      setup_s.push_back(seconds_since(start));
      TrainTimes times;
      auto model = train(in, &times);
      train_s.push_back(times.general_s + times.specialize_s);
      evaluate(*model, in, eval_seconds, opt, result, tally, eval_rates,
               single_ms, mismatches);
    }
    Metrics& e2e = result.end_to_end;
    e2e.set("setup_s", median(setup_s), "s");
    e2e.set("train_s", median(train_s), "s");
    e2e.set("eval_samples_per_s", median(eval_rates), "1/s");
    tally.write(e2e);
    const WindowedLatency latency = windowed_latency(single_ms, kWindow);
    e2e.set("latency_p50_ms", latency.p50, "ms");
    e2e.set("latency_p99_ms", latency.p99, "ms");
    e2e.set("closed_rps", latency.calls_per_s, "1/s");
    e2e.set("ok_share",
            static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted),
            "ratio");
    return result;
  }

  // Traced run: one campaign, set up with spans on; the primary metric
  // (train_s) alternates untraced and traced trainings of the same inputs.
  Metrics& layers = result.per_layer;
  obs::Registry::instance().reset_for_test();
  obs::set_enabled(true);
  const Inputs in = set_up(opt.seed, 0);
  write_setup_layers(in.times, layers);

  std::vector<double> untraced, traced;
  std::unique_ptr<core::DiagNetModel> model;
  for (int round = 0; round < 3; ++round) {
    obs::set_enabled(false);
    TrainTimes times;
    model = train(in, &times);
    untraced.push_back(times.general_s + times.specialize_s);

    obs::Registry::instance().reset_for_test();
    obs::set_enabled(true);
    model = train(in, &times);
    traced.push_back(times.general_s + times.specialize_s);
    write_train_layers(times, model->config().coarse,
                       in.deployment->fs.landmark_count(), layers);
  }
  const double u = median(untraced), t = median(traced);
  layers.set("obs.trace_overhead_pct", (t - u) / u * 100.0, "%");

  obs::Registry::instance().reset_for_test();
  evaluate(*model, in, eval_seconds, opt, result, tally, eval_rates,
           single_ms, mismatches);
  write_core_layers(model->config().coarse, in.deployment->fs.landmark_count(),
                    layers);
  layers.set("core.bitexact_mismatches", static_cast<double>(mismatches),
             "count");
  return result;
}

}  // namespace perfbench
