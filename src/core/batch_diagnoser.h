// Batched diagnosis engine: the full ranking pipeline of
// DiagNetModel::diagnose() — coarse forward, gradient attention,
// Algorithm 1 score weighting, extensible-forest scoring, ensemble
// blending — vectorised over N samples.
//
// A model is one trunk (LandPooling + the frozen first hidden layer) with a
// general head and one head per specialised service. Requests are grouped
// by landmark mask, then by head — the service's specialised head when one
// exists, the general head otherwise. Each mask group is cut into chunks of
// `batch_size` rows across its heads, and chunks are processed in parallel
// on a thread pool, all against the one shared, immutable model: each chunk
// keeps its activations in its own workspace, so no network is copied.
// Inside a chunk the trunk runs ONE forward and ONE input-only backward
// pass for all rows, and only the head layers fan out per head
// (core/attention.h, compute_attention_heads); everything downstream of the
// attention step is per-row.
//
// Exactness contract: run(requests)[i].diagnosis is bit-identical to
// model.diagnose(requests[i]).diagnosis — every per-row computation (GEMM
// accumulation order, land pooling, softmax, the score pipeline) is
// independent of the other rows of the batch, of batch_size, and of the
// thread count. The property test in tests/test_batch_diagnoser.cpp pins
// this, and the serving subsystem (src/serve) relies on it to coalesce
// concurrent callers without changing any answer.
#pragma once

#include <cstddef>
#include <vector>

#include "core/diagnet.h"
#include "util/thread_pool.h"

namespace diagnet::core {

struct BatchDiagnoserConfig {
  /// Rows per coarse-network forward/backward pass.
  std::size_t batch_size = 64;
  /// Pool for outer parallelism over batches; nullptr selects the global
  /// pool. Concurrent batches share the model's networks read-only, each
  /// with its own workspace.
  util::ThreadPool* pool = nullptr;
  /// Route every request through the general model, ignoring services.
  /// (Per-request routing is expressed with DiagnoseRequest::use_general;
  /// this config toggle forces it for the whole run.)
  bool use_general = false;
};

class BatchDiagnoser {
 public:
  explicit BatchDiagnoser(const DiagNetModel& model,
                          BatchDiagnoserConfig config = {});

  /// Diagnose all requests; response i corresponds to request i. Requests
  /// that fail validation (wrong feature count, bad mask) get a non-OK
  /// Status response without poisoning the rest of the batch.
  std::vector<DiagnoseResponse> run(
      const std::vector<DiagnoseRequest>& requests) const;

  const BatchDiagnoserConfig& config() const { return config_; }

 private:
  const DiagNetModel* model_;
  BatchDiagnoserConfig config_;
};

}  // namespace diagnet::core
