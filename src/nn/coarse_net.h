// The DiagNet coarse-prediction network (paper Fig. 2, steps 1-4):
//
//   land features ──> LandPooling ──┐
//                                   ├─ concat ─> FC(512) ─ ReLU ─ FC(128)
//   local features ─────────────────┘           ─ ReLU ─ FC(c) ─ softmax
//
// It is split into a trunk — LandPooling, the concat and every hidden layer
// but the last, the representation freeze_representation() freezes — and a
// head: the last hidden layer and the output layer, the part service
// specialisation retrains (§IV-F). A specialised model is another
// CoarseHead on the same trunk, so one trunk pass can feed many heads.
//
// The network exposes input gradients (both landmark and local) because the
// attention step (Fig. 2, step 5) differentiates the ideal-label loss with
// respect to the features. All passes are const and run on a caller-owned
// CoarseWorkspace, so one network serves any number of threads.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/batch.h"
#include "nn/land_pooling.h"
#include "nn/linear.h"
#include "util/rng.h"

namespace diagnet::nn {

struct CoarseNetConfig {
  std::size_t features_per_landmark = 5;   // k
  std::size_t local_features = 5;
  std::size_t filters = 24;                // f
  std::vector<PoolOp> pool_ops = default_pool_ops();
  std::vector<std::size_t> hidden = {512, 128};
  std::size_t classes = 7;                 // c

  bool operator==(const CoarseNetConfig&) const = default;
};

/// Per-thread forward/backward state: activations, gradient scratch, and
/// (for training) a full set of parameter-gradient accumulators in the
/// order of CoarseNet::parameters(). One workspace per thread lets any
/// number of threads run forward+backward concurrently against one shared
/// network; every buffer is reused with capacity-aware resizes, so
/// steady-state passes allocate nothing.
struct CoarseWorkspace {
  LandPooling::PoolContext pool;
  Matrix pooled;             // (B, ops·f)
  Matrix concat;             // (B, ops·f + local): input to the first FC
  std::vector<Matrix> trunk_act;  // post-ReLU output of each trunk layer
  std::vector<Matrix> head_act;   // head layer outputs; back() = logits
  Matrix grad_logits;        // dLoss/dLogits, filled by the loss
  Matrix grad_a, grad_b;     // ping-pong input-gradient buffers
  Matrix grad_pooled;        // concat gradient split, pooled part
  Matrix grad_local;         // concat gradient split, local part (inputs)
  Matrix grad_land;          // dLoss/d land (input-gradient backward)
  std::vector<Matrix> param_grads;  // ordered like parameters()

  /// Zero the parameter-gradient accumulators (start of every step).
  void zero_param_grads() {
    for (Matrix& g : param_grads) g.fill(0.0);
  }
};

/// The final fully-connected layers — the last hidden layer (ReLU) and the
/// output layer: from a CoarseNet's trunk features to logits over the c
/// coarse families.
class CoarseHead {
 public:
  /// Logits (B x c) from trunk features (B x in), into ws.head_act.
  const Matrix& forward(const Matrix& features, CoarseWorkspace& ws) const;

  /// Backward from dLoss/dLogits to dLoss/d features, which is returned
  /// (it lives in ws). With `param_grads` — (weight, bias) per layer in
  /// parameters() order, pre-sized — also accumulates the parameter
  /// gradients; `features` must be what forward() read.
  const Matrix& backward(const Matrix& features, const Matrix& grad_logits,
                         CoarseWorkspace& ws,
                         Matrix* param_grads = nullptr) const;

  std::vector<Parameter*> parameters();
  std::size_t parameter_count() const;
  std::vector<double> save_parameters() const;
  void load_parameters(const std::vector<double>& flat);

 private:
  friend class CoarseNet;
  std::vector<Linear> fc_;
};

class CoarseNet {
 public:
  CoarseNet(const CoarseNetConfig& config, util::Rng& rng);

  /// Size a workspace's parameter-gradient accumulators (zeroed) for this
  /// network. Call once per training workspace; inference workspaces skip
  /// it, and the passes below size every other buffer on the fly.
  void init_workspace(CoarseWorkspace& ws) const;

  /// Forward: logits over the c coarse fault families, (B x c), through
  /// the trunk and `head` — this net's own head() when null, otherwise a
  /// head fine-tuned on this trunk. Every intermediate goes into `ws`.
  const Matrix& forward(const LandBatch& batch, CoarseWorkspace& ws,
                        const CoarseHead* head = nullptr) const;

  /// Trunk forward: LandPooling, concat with the local features, and the
  /// trunk's hidden layers. Returns the trunk features every head reads;
  /// they live in `ws`.
  const Matrix& forward_trunk(const LandBatch& batch,
                              CoarseWorkspace& ws) const;

  /// Parameter-gradient backward (training) of forward() with the own
  /// head: accumulates into ws.param_grads (zero_param_grads() first).
  /// Input gradients are not produced — the training loop discards them,
  /// and skipping the LandPooling dx pass saves a full K^T·dF sweep per
  /// step.
  void backward(const Matrix& grad_logits, CoarseWorkspace& ws) const;

  /// Input-gradient backward (inference — gradient attention) of forward()
  /// with the own head: writes dLoss/d land into ws.grad_land and dLoss/d
  /// local into ws.grad_local. No parameter gradient is touched, which
  /// skips roughly half the FLOPs of a parameter backward.
  void backward_input(const Matrix& grad_logits, CoarseWorkspace& ws) const;

  /// Trunk backward from dLoss/d features (the heads' backward output,
  /// rows matching the last forward_trunk): with `params`, accumulates the
  /// trunk's parameter gradients into ws.param_grads; otherwise writes the
  /// input gradients ws.grad_land and ws.grad_local.
  void backward_trunk(const Matrix& grad_features, CoarseWorkspace& ws,
                      bool params = false) const;

  std::vector<Parameter*> parameters();
  std::size_t parameter_count() const;
  std::size_t trainable_parameter_count() const;

  /// Freeze the trunk (LandPooling kernel + every hidden layer but the
  /// last); only the head stays trainable. This is the
  /// service-specialisation split of paper §IV-F.
  void freeze_representation(bool frozen = true);

  const CoarseNetConfig& config() const { return config_; }
  const LandPooling& pooling() const { return pool_; }
  const CoarseHead& head() const { return head_; }

  /// Deep copy (shares nothing) — used to derive specialised models from
  /// the general model. Concurrent inference needs no copy: share the
  /// network and give each thread its own CoarseWorkspace.
  std::unique_ptr<CoarseNet> clone() const;

  /// Flat parameter (de)serialisation in parameters() order: the trunk's,
  /// then the head's.
  std::vector<double> save_parameters() const;
  void load_parameters(const std::vector<double>& flat);

 private:
  CoarseNet(const CoarseNet&) = default;  // for clone()

  /// The trunk features of the last forward_trunk into `ws`.
  const Matrix& features(const CoarseWorkspace& ws) const;

  CoarseNetConfig config_;
  LandPooling pool_;
  std::vector<Linear> fc_;  // trunk hidden layers, each followed by a ReLU
  CoarseHead head_;
  std::size_t local_offset_ = 0;  // where local features sit in the concat
};

}  // namespace diagnet::nn
