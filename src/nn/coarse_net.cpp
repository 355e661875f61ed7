#include "nn/coarse_net.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/require.h"

namespace diagnet::nn {

namespace {

/// In-place ReLU. Gating backward on the post-activation (x > 0) is exactly
/// equivalent to gating on the pre-activation, so no pre-ReLU copy is kept.
void relu_inplace(Matrix& m) {
  double* p = m.data();
  const std::size_t n = m.size();
  for (std::size_t i = 0; i < n; ++i)
    if (p[i] < 0.0) p[i] = 0.0;
}

/// out = grad with the entries whose post-activation is <= 0 zeroed (the
/// ReLU gate).
void relu_gate(const Matrix& post, const Matrix& grad, Matrix& out) {
  DIAGNET_REQUIRE(post.same_shape(grad));
  out.resize(grad.rows(), grad.cols());
  const double* a = post.data();
  const double* g = grad.data();
  double* o = out.data();
  const std::size_t n = grad.size();
  for (std::size_t i = 0; i < n; ++i) o[i] = a[i] <= 0.0 ? 0.0 : g[i];
}

/// Forward through a chain of fully-connected layers, a ReLU after each one
/// (but the last unless `relu_last`). act[i] receives layer i's output;
/// returns the chain's output (`input` for an empty chain).
const Matrix& chain_forward(const std::vector<Linear>& layers,
                            const Matrix& input, std::vector<Matrix>& act,
                            bool relu_last) {
  act.resize(layers.size());  // no-op once sized
  const Matrix* x = &input;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i].forward_into(*x, act[i]);
    if (relu_last || i + 1 < layers.size()) relu_inplace(act[i]);
    x = &act[i];
  }
  return *x;
}

/// Backward of chain_forward from dLoss/d output down to dLoss/d input,
/// which is returned (in grad_a, or grad_out itself for an empty chain).
/// With `param_grads` — (weight, bias) per layer — also accumulates the
/// parameter gradients. grad_out may be grad_a only when relu_last: the
/// gate copies it into grad_b before grad_a is written.
const Matrix& chain_backward(const std::vector<Linear>& layers,
                             const Matrix& input,
                             const std::vector<Matrix>& act, bool relu_last,
                             const Matrix& grad_out, Matrix& grad_a,
                             Matrix& grad_b, Matrix* param_grads) {
  const Matrix* grad = &grad_out;
  for (std::size_t i = layers.size(); i-- > 0;) {
    if (relu_last || i + 1 < layers.size()) {
      relu_gate(act[i], *grad, grad_b);
      grad = &grad_b;
    }
    const Matrix& in = i == 0 ? input : act[i - 1];
    if (param_grads != nullptr)
      layers[i].backward_into(in, *grad, param_grads[2 * i],
                              param_grads[2 * i + 1], &grad_a);
    else
      layers[i].backward_input_into(*grad, grad_a);
    grad = &grad_a;
  }
  return *grad;
}

std::vector<Parameter*> layer_parameters(std::vector<Linear>& layers) {
  std::vector<Parameter*> params;
  for (auto& layer : layers)
    for (Parameter* p : layer.parameters()) params.push_back(p);
  return params;
}

std::size_t count(const std::vector<Parameter*>& params) {
  std::size_t n = 0;
  for (const Parameter* p : params) n += p->value.size();
  return n;
}

std::vector<double> flatten(const std::vector<Parameter*>& params) {
  std::vector<double> flat;
  for (const Parameter* p : params) {
    const double* d = p->value.data();
    flat.insert(flat.end(), d, d + p->value.size());
  }
  return flat;
}

void unflatten(const std::vector<double>& flat,
               const std::vector<Parameter*>& params) {
  DIAGNET_REQUIRE_MSG(flat.size() == count(params),
                      "parameter blob does not match the architecture");
  const double* src = flat.data();
  for (Parameter* p : params) {
    std::copy(src, src + p->value.size(), p->value.data());
    src += p->value.size();
  }
}

}  // namespace

const Matrix& CoarseHead::forward(const Matrix& features,
                                  CoarseWorkspace& ws) const {
  return chain_forward(fc_, features, ws.head_act, /*relu_last=*/false);
}

const Matrix& CoarseHead::backward(const Matrix& features,
                                   const Matrix& grad_logits,
                                   CoarseWorkspace& ws,
                                   Matrix* param_grads) const {
  return chain_backward(fc_, features, ws.head_act, /*relu_last=*/false,
                        grad_logits, ws.grad_a, ws.grad_b, param_grads);
}

std::vector<Parameter*> CoarseHead::parameters() {
  return layer_parameters(fc_);
}

std::size_t CoarseHead::parameter_count() const {
  return count(const_cast<CoarseHead*>(this)->parameters());
}

std::vector<double> CoarseHead::save_parameters() const {
  return flatten(const_cast<CoarseHead*>(this)->parameters());
}

void CoarseHead::load_parameters(const std::vector<double>& flat) {
  unflatten(flat, parameters());
}

CoarseNet::CoarseNet(const CoarseNetConfig& config, util::Rng& rng)
    : config_(config),
      pool_(config.features_per_landmark, config.filters, config.pool_ops,
            rng) {
  DIAGNET_REQUIRE(config.classes >= 2);
  local_offset_ = pool_.out_features();
  std::size_t in = pool_.out_features() + config.local_features;
  for (std::size_t h : config.hidden) {
    fc_.emplace_back(in, h, rng);
    in = h;
  }
  fc_.emplace_back(in, config.classes, rng);
  // The head is the last hidden layer (if any) plus the output layer.
  const auto head_begin = fc_.end() - (fc_.size() >= 2 ? 2 : 1);
  head_.fc_.assign(std::make_move_iterator(head_begin),
                   std::make_move_iterator(fc_.end()));
  fc_.erase(head_begin, fc_.end());
}

void CoarseNet::init_workspace(CoarseWorkspace& ws) const {
  const auto params = const_cast<CoarseNet*>(this)->parameters();
  ws.param_grads.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    ws.param_grads[i].resize_zero(params[i]->value.rows(),
                                  params[i]->value.cols());
}

const Matrix& CoarseNet::forward_trunk(const LandBatch& batch,
                                       CoarseWorkspace& ws) const {
  DIAGNET_REQUIRE(batch.local.cols() == config_.local_features &&
                  batch.local.rows() == batch.size());
  pool_.forward(batch.land, batch.mask, ws.pool, ws.pooled);

  // Concatenate the pooled landmark representation with local features.
  ws.concat.resize(batch.size(), local_offset_ + config_.local_features);
  for (std::size_t r = 0; r < ws.concat.rows(); ++r) {
    double* row = ws.concat.row_ptr(r);
    std::copy(ws.pooled.row_ptr(r), ws.pooled.row_ptr(r) + local_offset_,
              row);
    std::copy(batch.local.row_ptr(r),
              batch.local.row_ptr(r) + config_.local_features,
              row + local_offset_);
  }
  return chain_forward(fc_, ws.concat, ws.trunk_act, /*relu_last=*/true);
}

const Matrix& CoarseNet::forward(const LandBatch& batch, CoarseWorkspace& ws,
                                 const CoarseHead* head) const {
  return (head ? *head : head_).forward(forward_trunk(batch, ws), ws);
}

void CoarseNet::backward_trunk(const Matrix& grad_features,
                               CoarseWorkspace& ws, bool params) const {
  // ws.param_grads order matches parameters(): pooling kernel and bias
  // first, then (weight, bias) per trunk layer, then the head's.
  const Matrix& grad_concat = chain_backward(
      fc_, ws.concat, ws.trunk_act, /*relu_last=*/true, grad_features,
      ws.grad_a, ws.grad_b, params ? ws.param_grads.data() + 2 : nullptr);

  // Split the concat gradient into its pooled and local parts.
  ws.grad_pooled.resize(grad_concat.rows(), local_offset_);
  ws.grad_local.resize(grad_concat.rows(), config_.local_features);
  for (std::size_t r = 0; r < grad_concat.rows(); ++r) {
    const double* row = grad_concat.row_ptr(r);
    std::copy(row, row + local_offset_, ws.grad_pooled.row_ptr(r));
    std::copy(row + local_offset_, row + grad_concat.cols(),
              ws.grad_local.row_ptr(r));
  }
  if (params)
    pool_.backward_params(ws.grad_pooled, ws.pool, ws.param_grads[0],
                          ws.param_grads[1]);
  else
    pool_.backward_input(ws.grad_pooled, ws.pool, ws.grad_land);
}

void CoarseNet::backward(const Matrix& grad_logits,
                         CoarseWorkspace& ws) const {
  backward_trunk(head_.backward(features(ws), grad_logits, ws,
                                ws.param_grads.data() + 2 + 2 * fc_.size()),
                 ws, /*params=*/true);
}

void CoarseNet::backward_input(const Matrix& grad_logits,
                               CoarseWorkspace& ws) const {
  backward_trunk(head_.backward(features(ws), grad_logits, ws), ws);
}

const Matrix& CoarseNet::features(const CoarseWorkspace& ws) const {
  return fc_.empty() ? ws.concat : ws.trunk_act.back();
}

std::vector<Parameter*> CoarseNet::parameters() {
  std::vector<Parameter*> params = pool_.parameters();
  for (Parameter* p : layer_parameters(fc_)) params.push_back(p);
  for (Parameter* p : head_.parameters()) params.push_back(p);
  return params;
}

std::size_t CoarseNet::parameter_count() const {
  return count(const_cast<CoarseNet*>(this)->parameters());
}

std::size_t CoarseNet::trainable_parameter_count() const {
  std::size_t n = 0;
  for (Parameter* p : const_cast<CoarseNet*>(this)->parameters())
    if (!p->frozen) n += p->value.size();
  return n;
}

void CoarseNet::freeze_representation(bool frozen) {
  for (Parameter* p : pool_.parameters()) p->frozen = frozen;
  for (Parameter* p : layer_parameters(fc_)) p->frozen = frozen;
}

std::unique_ptr<CoarseNet> CoarseNet::clone() const {
  return std::unique_ptr<CoarseNet>(new CoarseNet(*this));
}

std::vector<double> CoarseNet::save_parameters() const {
  return flatten(const_cast<CoarseNet*>(this)->parameters());
}

void CoarseNet::load_parameters(const std::vector<double>& flat) {
  unflatten(flat, parameters());
}

}  // namespace diagnet::nn
