#include "core/batch_diagnoser.h"

#include <algorithm>

#include "core/attention.h"
#include "data/encoding.h"
#include "obs/obs.h"
#include "util/require.h"

namespace diagnet::core {

namespace {

/// One serving network's contiguous slice of a chunk: rows
/// [begin, end) of the chunk's batch belong to `net`.
struct SubGroup {
  const nn::CoarseNet* net = nullptr;
  std::size_t begin = 0, end = 0;
};

/// A run of request indices encoded and pooled together; at most batch_size
/// long. A single-part chunk is the classic case (one network). A
/// multi-part chunk is a shared-pooling union: several specialized heads
/// with bit-identical frozen LandPooling parameters score disjoint row
/// ranges of one encoded batch, and the pooling stage runs once for all of
/// them. The mask pointer refers either to a request's own
/// landmark_available vector or to the shared all-true fallback.
struct Chunk {
  const std::vector<bool>* mask = nullptr;
  std::vector<std::size_t> indices;  // into the request vector
  std::vector<SubGroup> parts;       // cover [0, indices.size()), in order
};

/// All requests that share one landmark mask, split per serving network in
/// first-appearance order.
struct NetRun {
  const nn::CoarseNet* net = nullptr;
  std::vector<std::size_t> indices;
};
struct MaskGroup {
  const std::vector<bool>* mask = nullptr;
  std::vector<NetRun> runs;
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

  // Group requests by landmark mask, then by serving network within the
  // mask, both in first-appearance order — each row runs through exactly
  // the network and fleet diagnose() would have used. Invalid requests get
  // their Status now and never occupy a batch slot.
  std::vector<MaskGroup> mask_groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const DiagnoseRequest& request = requests[i];
    results[i].status = model_->validate(request);
    if (!results[i].status.ok()) continue;
    const nn::CoarseNet* net = config_.use_general || request.use_general
                                   ? &model_->general_net()
                                   : &model_->service_net(request.service);
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
                            [&](const NetRun& r) { return r.net == net; });
    if (rit == git->runs.end()) {
      git->runs.push_back({net, {}});
      rit = git->runs.end() - 1;
    }
    rit->indices.push_back(i);
  }

  // Cut each mask group into chunks. When several networks share bit-equal
  // frozen LandPooling parameters (specialized heads fine-tuned with
  // --freeze-kernel, plus their donor), their requests ride in ONE union
  // chunk and the pooling stage runs once — gradient attention only;
  // occlusion re-runs the full per-net forward anyway.
  std::vector<Chunk> chunks;
  std::size_t shared_chunks = 0;
  for (const MaskGroup& g : mask_groups) {
    const bool share =
        gradient && g.runs.size() > 1 &&
        std::all_of(g.runs.begin() + 1, g.runs.end(), [&](const NetRun& r) {
          return r.net->shares_pooling_with(*g.runs.front().net);
        });
    if (!share) {
      for (const NetRun& run : g.runs) {
        for (std::size_t b = 0; b < run.indices.size();
             b += config_.batch_size) {
          const std::size_t e =
              std::min(run.indices.size(), b + config_.batch_size);
          Chunk c;
          c.mask = g.mask;
          c.indices.assign(run.indices.begin() + static_cast<std::ptrdiff_t>(b),
                           run.indices.begin() + static_cast<std::ptrdiff_t>(e));
          c.parts = {{run.net, 0, c.indices.size()}};
          chunks.push_back(std::move(c));
        }
      }
      continue;
    }
    Chunk c;
    c.mask = g.mask;
    const auto flush = [&] {
      if (c.indices.empty()) return;
      if (c.parts.size() > 1) ++shared_chunks;
      chunks.push_back(std::move(c));
      c = Chunk{};
      c.mask = g.mask;
    };
    for (const NetRun& run : g.runs) {
      std::size_t pos = 0;
      while (pos < run.indices.size()) {
        const std::size_t take = std::min(run.indices.size() - pos,
                                          config_.batch_size - c.indices.size());
        const std::size_t begin = c.indices.size();
        c.indices.insert(
            c.indices.end(),
            run.indices.begin() + static_cast<std::ptrdiff_t>(pos),
            run.indices.begin() + static_cast<std::ptrdiff_t>(pos + take));
        c.parts.push_back({run.net, begin, begin + take});
        pos += take;
        if (c.indices.size() == config_.batch_size) flush();
      }
    }
    flush();
  }
  DIAGNET_COUNT_N("diagnose.batch.chunks", chunks.size());
  DIAGNET_COUNT_N("diagnose.batch.shared_pool_chunks", shared_chunks);

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
      if (gradient && chunk.parts.size() == 1) {
        attention = compute_attention_batch(*chunk.parts[0].net, batch, fs);
      } else if (gradient) {
        // Shared-pooling union: pool the whole chunk once, fan the FC
        // stacks out per head.
        std::vector<PooledGroup> pooled_groups(chunk.parts.size());
        for (std::size_t p = 0; p < chunk.parts.size(); ++p) {
          pooled_groups[p].net = chunk.parts[p].net;
          pooled_groups[p].rows.resize(chunk.parts[p].end -
                                       chunk.parts[p].begin);
          for (std::size_t s = 0; s < pooled_groups[p].rows.size(); ++s)
            pooled_groups[p].rows[s] = chunk.parts[p].begin + s;
        }
        attention = compute_attention_shared_pooling(pooled_groups, batch, fs);
      } else {
        // Occlusion probes one feature at a time (m forward passes per
        // sample); there is nothing to batch, so run it row by row with the
        // row's own network.
        attention.reserve(chunk.indices.size());
        for (std::size_t p = 0; p < chunk.parts.size(); ++p) {
          for (std::size_t r = chunk.parts[p].begin; r < chunk.parts[p].end;
               ++r) {
            const nn::LandBatch row = data::encode_sample(
                requests[chunk.indices[r]].features, fs, model_->normalizer(),
                mask);
            attention.push_back(
                compute_occlusion_attention(*chunk.parts[p].net, row, fs));
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
