// The DiagNet coarse-prediction network (paper Fig. 2, steps 1-4):
//
//   land features ──> LandPooling ──┐
//                                   ├─ concat ─> FC(512) ─ ReLU ─ FC(128)
//   local features ─────────────────┘           ─ ReLU ─ FC(c) ─ softmax
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
  std::vector<Matrix> act;   // act[i]: post-ReLU output of hidden layer i
  Matrix logits;             // (B, c)
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

class CoarseNet {
 public:
  CoarseNet(const CoarseNetConfig& config, util::Rng& rng);

  /// Size a workspace's parameter-gradient accumulators (zeroed) for this
  /// network. Call once per training workspace; inference workspaces skip
  /// it, and the passes below size every other buffer on the fly.
  void init_workspace(CoarseWorkspace& ws) const;

  /// Forward: logits over the c coarse fault families, (B x c). Every
  /// intermediate goes into `ws`; returns ws.logits.
  const Matrix& forward(const LandBatch& batch, CoarseWorkspace& ws) const;

  /// FC-stack forward from already-pooled rows, for the shared-pooling
  /// serving path: the caller pooled a (union) batch once and hands this
  /// head its rows. The concat + FC half of forward(); per-row bits match
  /// a full forward() of the same rows (the kernels' per-row group
  /// structure is batch-size invariant). Returns ws.logits.
  const Matrix& forward_fc(const Matrix& pooled, const Matrix& local,
                           CoarseWorkspace& ws) const;

  /// Parameter-gradient backward (training): accumulates into
  /// ws.param_grads (zero_param_grads() first). Input gradients are not
  /// produced — the training loop discards them, and skipping the
  /// LandPooling dx pass saves a full K^T·dF sweep per step.
  void backward(const Matrix& grad_logits, CoarseWorkspace& ws) const;

  /// Input-gradient backward (inference — gradient attention): writes
  /// dLoss/d land into ws.grad_land and dLoss/d local into ws.grad_local.
  /// No parameter gradient is touched, which skips roughly half the FLOPs
  /// of a parameter backward.
  void backward_input(const Matrix& grad_logits, CoarseWorkspace& ws) const;

  /// Input-gradient backward matching forward_fc: the FC chain only, into
  /// ws.grad_pooled and ws.grad_local (the caller scatters the pooled part
  /// into the union batch and runs one shared LandPooling backward).
  void backward_input_fc(const Matrix& grad_logits,
                         CoarseWorkspace& ws) const;

  std::vector<Parameter*> parameters();
  std::size_t parameter_count() const;
  std::size_t trainable_parameter_count() const;

  /// Freeze the representation layers (LandPooling kernel + first hidden
  /// layer); only the final fully-connected layers stay trainable. This is
  /// the service-specialisation split of paper §IV-F.
  void freeze_representation(bool frozen = true);

  /// True when this net's LandPooling computes bit-identical pooled rows to
  /// `other`'s — the precondition for the serving router to share one
  /// pooling pass across specialized heads.
  bool shares_pooling_with(const CoarseNet& other) const;

  const CoarseNetConfig& config() const { return config_; }
  LandPooling& pooling() { return pool_; }
  const LandPooling& pooling() const { return pool_; }

  /// Deep copy (shares nothing) — used to derive specialised models from
  /// the general model. Concurrent inference needs no copy: share the
  /// network and give each thread its own CoarseWorkspace.
  std::unique_ptr<CoarseNet> clone() const;

  /// Flat parameter (de)serialisation, ordered deterministically.
  std::vector<double> save_parameters() const;
  void load_parameters(const std::vector<double>& flat);

 private:
  CoarseNet(const CoarseNet&) = default;  // for clone()

  /// The FC chain backward shared by both passes: dLoss/dLogits down to the
  /// concat input (left in ws.grad_a, pooled part split into
  /// ws.grad_pooled). With `params`, also accumulates the FC layers'
  /// parameter gradients into ws.param_grads.
  void backward_fc(const Matrix& grad_logits, CoarseWorkspace& ws,
                   bool params) const;

  CoarseNetConfig config_;
  LandPooling pool_;
  std::vector<Linear> fc_;     // hidden layers (each followed by a ReLU)
                               // + output layer
  std::size_t local_offset_ = 0;  // where local features sit in the concat
};

}  // namespace diagnet::nn
