// Model registry: binary persistence of a fully-trained DiagNet model.
//
// The paper's deployment (Fig. 1) has a central analysis service that
// trains the inference model and *shares* it with clients; this registry
// is the wire/disk format for that hand-off. A saved model bundle (format
// v3) carries everything inference needs — the coarse-network architecture,
// the general network's weights (trunk + general head), the weights of
// every specialised per-service head (the final FC layers only), the
// normaliser statistics, the auxiliary Random Forest, and the
// unknown-feature set — so a client can diagnose without access to any
// training data. Bundles of other versions are refused with a data_loss
// Status that names the version; v2 bundles must be retrained.
//
// The primary API is Status-based (try_*): corruption, truncation and
// shape mismatches come back as util::Status (data_loss / not_found /
// invalid_argument) instead of a zoo of exception types, so the CLI's
// `error:` exit and the serving subsystem's hot-swap-refusal path render
// the same object.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "core/diagnet.h"
#include "util/status.h"

namespace diagnet::core {

/// Serialise a trained model. failed_precondition when untrained;
/// not_found / data_loss for file errors.
util::Status try_save_model(const DiagNetModel& model, std::ostream& os);
util::Status try_save_model_file(const DiagNetModel& model,
                                 const std::string& path);

/// Side-channel facts about a successfully loaded bundle; the serving
/// subsystem surfaces these through its statsz endpoint so an operator
/// can tell WHICH model a process is serving (the checksum is the
/// registry's FNV-1a payload checksum, i.e. it identifies the exact
/// trained weights, not just a file path).
struct ModelBundleInfo {
  std::uint64_t checksum = 0;
  std::uint64_t version = 0;  // registry file-format version
};

/// Reconstruct a model bound to `fs`. The feature space must describe the
/// same deployment shape (k metrics per landmark, local feature count) the
/// model was trained for; mismatches are invalid_argument, corrupt or
/// truncated bundles data_loss, missing files not_found. `info`, when
/// non-null, receives the bundle checksum/version on success.
util::StatusOr<std::unique_ptr<DiagNetModel>> try_load_model(
    std::istream& is, const data::FeatureSpace& fs,
    ModelBundleInfo* info = nullptr);
util::StatusOr<std::unique_ptr<DiagNetModel>> try_load_model_file(
    const std::string& path, const data::FeatureSpace& fs,
    ModelBundleInfo* info = nullptr);

}  // namespace diagnet::core
