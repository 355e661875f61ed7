// Streaming campaign data path: a sink interface the generator pushes
// samples through one at a time, plus a chunked on-disk format so
// million-sample campaigns never have to exist in RAM.
//
// On-disk layout (directory):
//   shard-00000.bin, shard-00001.bin, ...   raw concatenated sample
//                                           payloads, samples_per_shard
//                                           samples per shard
//   campaign.idx                            manifest + per-chunk table
//                                           {sample count, byte length,
//                                           fnv1a64 checksum}, itself
//                                           checksummed like the model
//                                           registry
//
// Chunks are bookkeeping over the shard byte stream — they never span a
// shard boundary, and the shard bytes are a pure function of the sample
// sequence. Two campaigns with the same samples therefore produce
// bit-identical shards for ANY chunk size and any writer thread count; only
// the index's chunk table reflects the chosen granularity.
//
// The index is written last, so a crashed writer leaves no campaign.idx and
// the reader reports not_found instead of serving a torn campaign. Corrupt
// chunk bytes are refused with data_loss at read time.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace diagnet::data {

/// Receives a campaign as an ordered stream of samples. begin() is called
/// once before the first sample, finish() once after the last; samples
/// arrive in canonical campaign order exactly once each.
class CampaignSink {
 public:
  virtual ~CampaignSink() = default;
  virtual util::Status begin(const FeatureSpace& fs,
                             const std::vector<bool>& landmark_available) = 0;
  virtual util::Status append(const Sample& sample) = 0;
  virtual util::Status finish() = 0;
};

/// Collects the stream into an in-RAM Dataset — the adapter that keeps
/// generate_campaign's historical return-by-value contract.
class DatasetSink final : public CampaignSink {
 public:
  util::Status begin(const FeatureSpace& fs,
                     const std::vector<bool>& landmark_available) override;
  util::Status append(const Sample& sample) override;
  util::Status finish() override { return {}; }

  Dataset take() { return std::move(dataset_); }
  const Dataset& dataset() const { return dataset_; }

 private:
  Dataset dataset_;
};

struct ChunkedWriterConfig {
  /// Samples per checksummed chunk (the unit of corruption detection and of
  /// reader buffering).
  std::size_t chunk_size = 4096;
  /// Samples per shard file. Must be a chunk multiple is NOT required —
  /// chunks are simply cut at shard boundaries.
  std::size_t samples_per_shard = 262144;
};

/// Streams samples into a chunked on-disk campaign directory.
class ChunkedWriter final : public CampaignSink {
 public:
  explicit ChunkedWriter(std::string dir, ChunkedWriterConfig config = {});

  util::Status begin(const FeatureSpace& fs,
                     const std::vector<bool>& landmark_available) override;
  util::Status append(const Sample& sample) override;
  util::Status finish() override;

  std::uint64_t written() const { return total_samples_; }

 private:
  struct ChunkEntry {
    std::uint64_t samples = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
  };

  util::Status flush_chunk();
  util::Status open_shard(std::size_t index);

  std::string dir_;
  ChunkedWriterConfig config_;
  std::size_t feature_count_ = 0;
  std::vector<bool> landmark_available_;

  std::ofstream shard_;
  std::size_t shard_index_ = 0;
  std::size_t shard_samples_ = 0;

  std::ostringstream chunk_;
  std::size_t chunk_samples_ = 0;

  std::vector<ChunkEntry> chunks_;
  std::uint64_t total_samples_ = 0;
  bool begun_ = false;
};

/// Sequential reader over a chunked campaign directory. Holds one decoded
/// chunk in memory at a time, so consumers can iterate campaigns far larger
/// than RAM. Each chunk's checksum is verified before any sample from it is
/// served.
class ChunkedReader {
 public:
  ChunkedReader() = default;

  static util::StatusOr<ChunkedReader> open(const std::string& dir,
                                            const FeatureSpace& fs);

  std::uint64_t size() const { return total_samples_; }
  const std::vector<bool>& landmark_available() const {
    return landmark_available_;
  }

  /// Reads the next sample into *sample; sets *eof (and leaves *sample
  /// untouched) once the campaign is exhausted.
  util::Status next(Sample* sample, bool* eof);

 private:
  struct ChunkEntry {
    std::uint64_t samples = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
  };

  util::Status load_chunk();

  std::string dir_;
  std::size_t feature_count_ = 0;
  std::vector<bool> landmark_available_;
  std::uint64_t total_samples_ = 0;
  std::size_t samples_per_shard_ = 0;
  std::vector<ChunkEntry> chunks_;

  std::size_t chunk_index_ = 0;
  std::ifstream shard_;
  bool shard_open_ = false;
  std::size_t shard_index_ = 0;
  std::size_t shard_samples_read_ = 0;

  std::vector<Sample> decoded_;
  std::size_t decoded_pos_ = 0;
};

/// Loads a whole chunked campaign directory into a Dataset.
util::StatusOr<Dataset> try_read_chunked(const std::string& dir,
                                         const FeatureSpace& fs);

/// Campaign loader used by the CLI: a directory is treated as a chunked
/// campaign, anything else as a CSV file.
util::StatusOr<Dataset> try_read_campaign(const std::string& path,
                                          const FeatureSpace& fs);

/// Streams every sample of a campaign (chunked directory or CSV file)
/// through `fn` — chunked campaigns are iterated one chunk at a time
/// without materializing the whole Dataset. Returns the campaign's
/// landmark-availability mask.
util::StatusOr<std::vector<bool>> for_each_campaign_sample(
    const std::string& path, const FeatureSpace& fs,
    const std::function<void(const Sample&)>& fn);

}  // namespace diagnet::data
