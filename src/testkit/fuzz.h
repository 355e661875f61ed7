// Byte-level fuzzing of the persistence formats (model bundles, campaign
// CSVs, the raw binary_io primitives). The contract under test is the
// paper's deployment story: a client that receives a damaged model bundle
// must reject it with a clean `error:` — never crash, never silently load
// a garbage model (the registry's payload checksum makes even flipped bits
// inside weight doubles detectable).
#pragma once

#include <string>

#include "data/feature_space.h"
#include "testkit/harness.h"

namespace diagnet::testkit::fuzz {

/// One random corruption of `bytes`: truncation, bit flips, byte-range
/// scribbles, or a u64-aligned overwrite aimed at length fields (including
/// the allocation-bomb value ~0). The result always differs from the
/// input; `descr` (optional) receives a short label for failure messages.
std::string corrupt(util::Rng& rng, const std::string& bytes,
                    std::string* descr = nullptr);

/// A serialised trained model bundle over tiny_world(), built once per
/// process and cached (training a minimal model takes a moment).
const std::string& tiny_model_bundle();

/// The deployment the bundle (and campaign CSV) was built for.
const data::FeatureSpace& tiny_world_space();

/// A campaign CSV over tiny_world(), cached alongside the bundle.
const std::string& tiny_campaign_csv();

// Property suites (see testkit/harness.h for the CaseContext contract).

/// Corrupted model bundles are always rejected with a clean exception.
void check_bundle_fuzz(CaseContext& ctx);
/// Corrupted campaign CSVs either parse to a shape-consistent dataset or
/// throw — they never crash the reader.
void check_campaign_fuzz(CaseContext& ctx);
/// binary_io: exact roundtrip on clean streams; corrupt streams (incl.
/// hostile length fields) throw instead of over-allocating or crashing.
void check_binary_io_fuzz(CaseContext& ctx);
/// serve/framing.h under adversarial streams: chunk splits at every byte
/// boundary, embedded NUL/CR bytes, interleaved partial requests across
/// many framers, and oversized lines — the framed line sequence is always
/// byte-identical to whole-line ('\n'-split) parsing, and the length cap
/// is enforced stickily.
void check_wire_framing_fuzz(CaseContext& ctx);

}  // namespace diagnet::testkit::fuzz
