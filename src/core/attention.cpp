#include "core/attention.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/softmax.h"
#include "util/require.h"

namespace diagnet::core {

namespace {

/// Normalise γ to sum 1. When the signal is degenerate (saturated softmax
/// gives an all-zero gradient; occlusion may find no probability drop),
/// fall back to a uniform distribution over the *available* features —
/// masked-out landmarks must stay at exactly 0. `row` selects the sample's
/// mask row inside a (possibly multi-row) batch.
void normalize_gamma(std::vector<double>& gamma, const nn::LandBatch& batch,
                     std::size_t row, const data::FeatureSpace& fs,
                     double sum) {
  if (sum > 0.0) {
    for (auto& g : gamma) g /= sum;
    return;
  }
  std::size_t usable = fs.local_count();
  for (std::size_t lam = 0; lam < fs.landmark_count(); ++lam)
    if (batch.mask(row, lam) >= 0.5) usable += fs.metrics_per_landmark();
  const double uniform = 1.0 / static_cast<double>(usable);
  for (std::size_t j = 0; j < gamma.size(); ++j) {
    const bool available =
        !fs.is_landmark_feature(j) ||
        batch.mask(row, fs.landmark_of(j)) >= 0.5;
    gamma[j] = available ? uniform : 0.0;
  }
}

/// Shared γ extraction: map row `r` of the (land, local) input gradients
/// back to the m-dimensional feature space and normalise.
void gamma_from_grads(AttentionResult& result, const nn::Matrix& grad_land,
                      const nn::Matrix& grad_local, std::size_t r,
                      const nn::LandBatch& batch,
                      const data::FeatureSpace& fs) {
  const std::size_t k = fs.metrics_per_landmark();
  result.gamma.assign(fs.total(), 0.0);
  double sum = 0.0;
  for (std::size_t lam = 0; lam < fs.landmark_count(); ++lam) {
    for (std::size_t metric = 0; metric < k; ++metric) {
      const std::size_t j = fs.landmark_feature(
          lam, static_cast<data::Metric>(metric));
      const double g = std::abs(grad_land(r, lam * k + metric));
      result.gamma[j] = g;
      sum += g;
    }
  }
  for (std::size_t t = 0; t < fs.local_count(); ++t) {
    const std::size_t j =
        fs.local_feature(static_cast<data::LocalFeature>(t));
    const double g = std::abs(grad_local(r, t));
    result.gamma[j] = g;
    sum += g;
  }
  normalize_gamma(result.gamma, batch, r, fs, sum);
}

/// Coarse prediction of one logits row: softmax probabilities and argmax.
void set_coarse(AttentionResult& result, const nn::Matrix& probs,
                std::size_t r) {
  result.coarse_probs = probs.row_copy(r);
  result.coarse_argmax = static_cast<std::size_t>(
      std::max_element(result.coarse_probs.begin(),
                       result.coarse_probs.end()) -
      result.coarse_probs.begin());
}

}  // namespace

std::vector<AttentionResult> compute_attention_heads(
    const nn::CoarseNet& trunk, const std::vector<HeadRows>& heads,
    const nn::LandBatch& batch, const data::FeatureSpace& fs) {
  const std::size_t n = batch.size();
  std::vector<AttentionResult> results(n);
  if (n == 0) return results;

  // One trunk forward over every row.
  nn::CoarseWorkspace ws;
  const nn::Matrix& features = trunk.forward_trunk(batch, ws);
  nn::Matrix grad_features(n, features.cols());
  nn::Matrix rows;

  std::size_t next = 0;  // `heads` must partition [0, n) in order
  for (const HeadRows& part : heads) {
    DIAGNET_REQUIRE(part.begin == next && part.begin < part.end);
    next = part.end;
    const std::size_t m = part.end - part.begin;
    rows.resize(m, features.cols());
    std::copy(features.row_ptr(part.begin), features.row_ptr(part.end),
              rows.data());

    // This head's forward; softmax/argmax are strictly row-wise.
    const nn::Matrix& logits = part.head->forward(rows, ws);
    const nn::Matrix probs = nn::softmax(logits);
    std::vector<std::size_t> argmaxes(m);
    for (std::size_t s = 0; s < m; ++s) {
      set_coarse(results[part.begin + s], probs, s);
      argmaxes[s] = results[part.begin + s].coarse_argmax;
    }

    // Backpropagate the ideal-label loss through the head, input gradients
    // only — attention never consumes parameter gradients.
    const nn::Matrix& grad =
        part.head->backward(rows, nn::ideal_label_grads(logits, argmaxes), ws);
    std::copy(grad.data(), grad.data() + grad.size(),
              grad_features.row_ptr(part.begin));
  }
  DIAGNET_REQUIRE(next == n);

  // One trunk backward over every row, down to the inputs, then map the
  // (land, local) gradients back to the m-dimensional feature space.
  trunk.backward_trunk(grad_features, ws);
  for (std::size_t r = 0; r < n; ++r)
    gamma_from_grads(results[r], ws.grad_land, ws.grad_local, r, batch, fs);
  return results;
}

std::vector<AttentionResult> compute_attention_batch(
    const nn::CoarseNet& net, const nn::LandBatch& batch,
    const data::FeatureSpace& fs) {
  return compute_attention_heads(net, {{&net.head(), 0, batch.size()}},
                                 batch, fs);
}

AttentionResult compute_attention(const nn::CoarseNet& net,
                                  const nn::LandBatch& sample,
                                  const data::FeatureSpace& fs) {
  DIAGNET_REQUIRE_MSG(sample.size() == 1, "attention works on one sample");
  return std::move(compute_attention_batch(net, sample, fs).front());
}

AttentionResult compute_occlusion_attention(
    const nn::CoarseNet& net, const nn::LandBatch& sample,
    const data::FeatureSpace& fs, const nn::CoarseHead* head) {
  DIAGNET_REQUIRE_MSG(sample.size() == 1, "attention works on one sample");

  nn::CoarseWorkspace ws;
  AttentionResult result;
  set_coarse(result, nn::softmax(net.forward(sample, ws, head)), 0);
  const double base = result.coarse_probs[result.coarse_argmax];

  // Occlude each feature in turn. Normalised features have mean ~0 per
  // metric kind, so 0 is the natural "typical value" baseline.
  const std::size_t k = fs.metrics_per_landmark();
  result.gamma.assign(fs.total(), 0.0);
  double sum = 0.0;
  nn::LandBatch probe = sample;
  const auto drop_for = [&]() {
    const nn::Matrix probs = nn::softmax(net.forward(probe, ws, head));
    return std::max(0.0, base - probs(0, result.coarse_argmax));
  };
  for (std::size_t lam = 0; lam < fs.landmark_count(); ++lam) {
    if (sample.mask(0, lam) < 0.5) continue;  // unavailable: stays 0
    for (std::size_t metric = 0; metric < k; ++metric) {
      const std::size_t col = lam * k + metric;
      const double saved = probe.land(0, col);
      probe.land(0, col) = 0.0;
      const std::size_t j =
          fs.landmark_feature(lam, static_cast<data::Metric>(metric));
      result.gamma[j] = drop_for();
      sum += result.gamma[j];
      probe.land(0, col) = saved;
    }
  }
  for (std::size_t t = 0; t < fs.local_count(); ++t) {
    const double saved = probe.local(0, t);
    probe.local(0, t) = 0.0;
    const std::size_t j =
        fs.local_feature(static_cast<data::LocalFeature>(t));
    result.gamma[j] = drop_for();
    sum += result.gamma[j];
    probe.local(0, t) = saved;
  }

  normalize_gamma(result.gamma, sample, 0, fs, sum);
  return result;
}

}  // namespace diagnet::core
