// Fine-grained inference via the gradient attention mechanism (paper
// §III-E): compute the ideal label y* = onehot(argmax y) of the coarse
// prediction, backpropagate the cross-entropy L* = -log y_argmax through
// the coarse network down to the *input features*, and read each feature's
// usefulness as its normalised absolute partial derivative (Eq. 1):
//
//   γ̂_j = |∂L*/∂x_j| / Σ_k |∂L*/∂x_k|
//
// A specialised model is a head on the general network's frozen trunk
// (nn/coarse_net.h), so there is one gradient path for one or many heads:
// compute_attention_heads() runs the trunk once over a batch whose rows
// belong to several heads, and compute_attention_batch() is its one-head
// case.
#pragma once

#include <cstddef>
#include <vector>

#include "data/feature_space.h"
#include "nn/coarse_net.h"

namespace diagnet::core {

struct AttentionResult {
  std::vector<double> coarse_probs;  // softmax over the c fault families
  std::size_t coarse_argmax = 0;
  /// γ̂ over the m features (masked-out landmarks get exactly 0).
  std::vector<double> gamma;
};

/// One head's rows of a batch: rows [begin, end) run through `head`.
struct HeadRows {
  const nn::CoarseHead* head = nullptr;
  std::size_t begin = 0, end = 0;
};

/// Gradient attention for a batch whose rows are scored by one or more
/// heads on `trunk`'s trunk (each a head fine-tuned on it, or the net's own
/// head()): one forward + one input-gradient backward pass, no parameter
/// gradient touched. The trunk — LandPooling and the frozen hidden layers —
/// runs forward and backward ONCE over all rows; only the head layers fan
/// out per entry of `heads`, which must partition [0, batch.size()). The
/// network is shared read-only — every intermediate lives in a workspace
/// local to the call — so any number of threads may run this at once.
/// Result r is bit-identical to the call on row r alone with its own head:
/// every per-row computation (GEMM accumulation order, pooling, softmax)
/// is independent of the other rows and of the batch size.
std::vector<AttentionResult> compute_attention_heads(
    const nn::CoarseNet& trunk, const std::vector<HeadRows>& heads,
    const nn::LandBatch& batch, const data::FeatureSpace& fs);

/// The one-head case of compute_attention_heads(): every row through
/// `net`'s own head.
std::vector<AttentionResult> compute_attention_batch(
    const nn::CoarseNet& net, const nn::LandBatch& batch,
    const data::FeatureSpace& fs);

/// The one-row case of compute_attention_batch(); `sample` must hold
/// exactly one row.
AttentionResult compute_attention(const nn::CoarseNet& net,
                                  const nn::LandBatch& sample,
                                  const data::FeatureSpace& fs);

/// Black-box alternative (the paper cites LIME-style model-agnostic
/// explainers as the generic option before choosing gradients, §III-E):
/// occlude one feature at a time — replace its normalised value with 0,
/// the training mean of its metric kind — and read the feature's usefulness
/// as the drop in the winning class probability. Costs m forward passes
/// instead of one backward pass; compared against the gradient method in
/// bench/ablation_attention. `head` selects a head fine-tuned on `net`'s
/// trunk instead of its own.
AttentionResult compute_occlusion_attention(
    const nn::CoarseNet& net, const nn::LandBatch& sample,
    const data::FeatureSpace& fs, const nn::CoarseHead* head = nullptr);

}  // namespace diagnet::core
