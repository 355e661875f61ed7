// The benchmark's workloads and the per-layer writers they share.
#pragma once

#include "common.h"
#include "nn/coarse_net.h"

namespace perfbench {

/// `train`: simulate -> split -> train -> evaluate, offline.
RunResult run_train(const Options& opt);

/// `serve_open` (open loop, fixed rate) and `serve_closed` (closed loop):
/// an in-process DiagnosisService + Reactor on loopback driven by
/// serve::run_loadgen.
RunResult run_serve(const Options& opt, bool open_loop);

/// Per-layer metrics read from the obs registry of the traced run.
void write_setup_layers(const CampaignTimes& t, Metrics& out);
void write_train_layers(const TrainTimes& t, const nn::CoarseNetConfig& net,
                        std::size_t landmarks, Metrics& out);
void write_core_layers(const nn::CoarseNetConfig& net, std::size_t landmarks,
                       Metrics& out);

}  // namespace perfbench
