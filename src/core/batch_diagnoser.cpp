#include "core/batch_diagnoser.h"

#include <algorithm>

#include "core/attention.h"
#include "data/encoding.h"
#include "obs/obs.h"
#include "util/require.h"

namespace diagnet::core {

namespace {

/// A run of request indices encoded and run together; at most batch_size
/// long, with the same landmark mask. `heads` cut it into the contiguous
/// row ranges each head scores; the trunk runs once for all of them. The
/// mask pointer refers either to a request's own landmark_available vector
/// or to the shared all-true fallback.
struct Chunk {
  const std::vector<bool>* mask = nullptr;
  std::vector<std::size_t> indices;  // into the request vector
  std::vector<HeadRows> heads;       // cover [0, indices.size()), in order
};

/// All requests that share one landmark mask, split per head in
/// first-appearance order.
struct HeadRun {
  const nn::CoarseHead* head = nullptr;
  std::vector<std::size_t> indices;
};
struct MaskGroup {
  const std::vector<bool>* mask = nullptr;
  std::vector<HeadRun> runs;
};

}  // namespace

BatchDiagnoser::BatchDiagnoser(const DiagNetModel& model,
                               BatchDiagnoserConfig config)
    : model_(&model), config_(config) {
  DIAGNET_REQUIRE(config_.batch_size > 0);
}

std::vector<DiagnoseResponse> BatchDiagnoser::run(
    const std::vector<DiagnoseRequest>& requests) const {
  DIAGNET_SPAN("diagnose.batch");
  DIAGNET_REQUIRE_MSG(model_->trained(), "train_general() first");
  DIAGNET_COUNT_N("diagnose.batch.samples", requests.size());

  std::vector<DiagnoseResponse> results(requests.size());
  if (requests.empty()) return results;

  const data::FeatureSpace& fs = model_->feature_space();
  const std::vector<bool> all_landmarks(fs.landmark_count(), true);

  const bool gradient =
      model_->config().attention == AttentionMethod::Gradient;

  // Group requests by landmark mask, then by head within the mask, both in
  // first-appearance order — each row runs through exactly the head and
  // fleet diagnose() would have used. Invalid requests get their Status now
  // and never occupy a batch slot.
  const nn::CoarseNet& trunk = model_->general_net();
  std::vector<MaskGroup> mask_groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const DiagnoseRequest& request = requests[i];
    results[i].status = model_->validate(request);
    if (!results[i].status.ok()) continue;
    const nn::CoarseHead* head = config_.use_general || request.use_general
                                     ? &trunk.head()
                                     : &model_->service_head(request.service);
    const std::vector<bool>* mask = request.landmark_available.empty()
                                        ? &all_landmarks
                                        : &request.landmark_available;
    auto git = std::find_if(
        mask_groups.begin(), mask_groups.end(), [&](const MaskGroup& g) {
          return g.mask == mask || *g.mask == *mask;
        });
    if (git == mask_groups.end()) {
      mask_groups.push_back({mask, {}});
      git = mask_groups.end() - 1;
    }
    auto rit = std::find_if(git->runs.begin(), git->runs.end(),
                            [&](const HeadRun& r) { return r.head == head; });
    if (rit == git->runs.end()) {
      git->runs.push_back({head, {}});
      rit = git->runs.end() - 1;
    }
    rit->indices.push_back(i);
  }

  // Cut each mask group into chunks of up to batch_size rows, across heads:
  // every head runs on the one trunk, so rows of different services share a
  // chunk and its trunk pass.
  std::vector<Chunk> chunks;
  for (const MaskGroup& g : mask_groups) {
    Chunk c;
    c.mask = g.mask;
    for (const HeadRun& run : g.runs) {
      std::size_t pos = 0;
      while (pos < run.indices.size()) {
        const std::size_t take = std::min(run.indices.size() - pos,
                                          config_.batch_size - c.indices.size());
        const std::size_t begin = c.indices.size();
        c.indices.insert(
            c.indices.end(),
            run.indices.begin() + static_cast<std::ptrdiff_t>(pos),
            run.indices.begin() + static_cast<std::ptrdiff_t>(pos + take));
        c.heads.push_back({run.head, begin, begin + take});
        pos += take;
        if (c.indices.size() == config_.batch_size) {
          chunks.push_back(std::move(c));
          c = Chunk{};
          c.mask = g.mask;
        }
      }
    }
    if (!c.indices.empty()) chunks.push_back(std::move(c));
  }
  DIAGNET_COUNT_N("diagnose.batch.chunks", chunks.size());

  util::ThreadPool& pool =
      config_.pool ? *config_.pool : util::ThreadPool::global();
  // Chunks run concurrently against the shared networks; each attention
  // call below keeps its activations in a workspace of its own.
  pool.parallel_for(chunks.size(), [&](std::size_t ci) {
    const Chunk& chunk = chunks[ci];
    const std::vector<bool>& mask = *chunk.mask;

    nn::LandBatch batch;
    {
      DIAGNET_SPAN("diagnose.batch.encode");
      std::vector<const std::vector<double>*> raw(chunk.indices.size());
      for (std::size_t r = 0; r < chunk.indices.size(); ++r)
        raw[r] = &requests[chunk.indices[r]].features;
      batch = data::encode_batch(raw, fs, model_->normalizer(), mask);
    }

    std::vector<AttentionResult> attention;
    {
      DIAGNET_SPAN("diagnose.batch.attention");
      if (gradient) {
        attention = compute_attention_heads(trunk, chunk.heads, batch, fs);
      } else {
        // Occlusion probes one feature at a time (m forward passes per
        // sample); there is nothing to batch, so run it row by row with the
        // row's own head.
        attention.reserve(chunk.indices.size());
        for (const HeadRows& part : chunk.heads) {
          for (std::size_t r = part.begin; r < part.end; ++r) {
            const nn::LandBatch row = data::encode_sample(
                requests[chunk.indices[r]].features, fs, model_->normalizer(),
                mask);
            attention.push_back(
                compute_occlusion_attention(trunk, row, fs, part.head));
          }
        }
      }
    }

    {
      DIAGNET_SPAN("diagnose.batch.score");
      for (std::size_t r = 0; r < chunk.indices.size(); ++r) {
        const std::size_t i = chunk.indices[r];
        results[i].diagnosis = model_->complete_diagnosis(
            attention[r], requests[i].features, mask);
      }
    }
  });
  return results;
}

}  // namespace diagnet::core
