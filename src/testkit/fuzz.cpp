#include "testkit/fuzz.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/diagnet.h"
#include "core/registry.h"
#include "data/io.h"
#include "serve/framing.h"
#include "serve/wire.h"
#include "testkit/gen.h"
#include "util/binary_io.h"
#include "util/require.h"

namespace diagnet::testkit::fuzz {

namespace {

/// The cached tiny deployment: a simulated world, a model trained on its
/// campaign for a couple of epochs, the serialised bundle, and the CSV
/// export. Built on first use; every fuzz case reuses the same bytes.
struct FuzzFixture {
  gen::TinyWorld world;
  std::string bundle;
  std::string csv;

  FuzzFixture() : world(/*seed=*/4242, /*nominal=*/40, /*fault=*/60) {
    core::DiagNetConfig config;
    config.coarse.filters = 4;
    config.coarse.hidden = {16, 8};
    config.trainer.max_epochs = 2;
    config.trainer.batch_size = 32;
    config.trainer.patience = 2;
    config.specialization.max_epochs = 1;
    config.auxiliary.n_estimators = 3;
    config.auxiliary.tree.max_depth = 4;
    config.seed = 4242;

    core::DiagNetModel model(world.fs, config);
    model.train_general(world.dataset);

    std::ostringstream bundle_os(std::ios::binary);
    const util::Status saved = core::try_save_model(model, bundle_os);
    DIAGNET_REQUIRE_MSG(saved.ok(), saved.message());
    bundle = bundle_os.str();

    std::ostringstream csv_os;
    const util::Status written = data::try_write_csv(world.dataset, world.fs,
                                                     csv_os);
    DIAGNET_REQUIRE_MSG(written.ok(), written.message());
    csv = csv_os.str();
  }
};

FuzzFixture& fixture() {
  static FuzzFixture fx;
  return fx;
}

}  // namespace

std::string corrupt(util::Rng& rng, const std::string& bytes,
                    std::string* descr) {
  DIAGNET_REQUIRE(!bytes.empty());
  std::string out = bytes;
  std::string what;
  switch (rng.uniform_index(4)) {
    case 0: {  // truncation, biased toward cutting inside the payload
      const std::size_t keep =
          static_cast<std::size_t>(rng.uniform_index(bytes.size()));
      out.resize(keep);
      what = "truncate to " + std::to_string(keep) + " bytes";
      break;
    }
    case 1: {  // 1..8 independent bit flips
      const std::size_t flips = 1 + rng.uniform_index(8);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at =
            static_cast<std::size_t>(rng.uniform_index(out.size()));
        out[at] = static_cast<char>(
            out[at] ^ static_cast<char>(1u << rng.uniform_index(8)));
      }
      what = "flip " + std::to_string(flips) + " bits";
      break;
    }
    case 2: {  // scribble a short byte range
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform_index(out.size()));
      const std::size_t len =
          std::min(out.size() - at,
                   static_cast<std::size_t>(1 + rng.uniform_index(16)));
      for (std::size_t i = 0; i < len; ++i)
        out[at + i] = static_cast<char>(rng.uniform_index(256));
      what = "scribble " + std::to_string(len) + " bytes at " +
             std::to_string(at);
      break;
    }
    default: {  // u64-aligned overwrite: aims at length/count fields
      const std::size_t slots = out.size() / sizeof(std::uint64_t);
      if (slots == 0) {
        out.resize(out.size() - 1);
        what = "truncate tail byte";
        break;
      }
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform_index(slots)) *
          sizeof(std::uint64_t);
      // Half the time a dedicated allocation bomb, else a random value.
      const std::uint64_t value =
          rng.bernoulli(0.5) ? ~std::uint64_t{0} >> rng.uniform_index(16)
                             : rng.next_u64();
      std::memcpy(out.data() + at, &value, sizeof(value));
      what = "overwrite u64 at " + std::to_string(at);
      break;
    }
  }
  if (out == bytes) {  // a no-op scribble/overwrite: force a visible change
    out.back() = static_cast<char>(out.back() ^ 0x01);
    what += " (+tail flip)";
  }
  if (descr != nullptr) *descr = what;
  return out;
}

const std::string& tiny_model_bundle() { return fixture().bundle; }

const data::FeatureSpace& tiny_world_space() { return fixture().world.fs; }

const std::string& tiny_campaign_csv() { return fixture().csv; }

void check_bundle_fuzz(CaseContext& ctx) {
  const std::string& bundle = tiny_model_bundle();
  const data::FeatureSpace& fs = tiny_world_space();

  // Sanity: the pristine bundle must load (otherwise every rejection below
  // would pass vacuously).
  ctx.begin_case();
  {
    std::istringstream is(bundle, std::ios::binary);
    const auto model = core::try_load_model(is, fs);
    if (model.ok()) {
      ctx.check(*model != nullptr && (*model)->trained(),
                "pristine bundle must load as a trained model");
    } else {
      ctx.fail("pristine bundle failed to load: " + model.status().message());
    }
  }

  // Every corruption of the logical stream must be rejected cleanly. The
  // payload checksum makes this airtight: any surviving bit difference
  // either breaks the header, the length, or the payload digest.
  for (std::size_t c = 0; c < 4; ++c) {
    ctx.begin_case();
    std::string what;
    const std::string bad = corrupt(ctx.rng, bundle, &what);
    std::istringstream is(bad, std::ios::binary);
    const auto model = core::try_load_model(is, fs);
    if (model.ok())
      ctx.fail("corrupt bundle loaded without an error (" + what + ")");
    else
      ctx.check(true, "clean rejection");
  }
}

void check_campaign_fuzz(CaseContext& ctx) {
  const std::string& csv = tiny_campaign_csv();
  const data::FeatureSpace& fs = tiny_world_space();

  ctx.begin_case();
  {
    std::istringstream is(csv);
    const auto ds = data::try_read_csv(is, fs);
    if (ds.ok())
      ctx.check_eq(ds->size(), fixture().world.dataset.size(),
                   "pristine CSV roundtrip sample count");
    else
      ctx.fail("pristine CSV failed to parse: " + ds.status().message());
  }

  // Text corruption cannot always be *detected* (a flipped digit is still
  // a number), so the contract is weaker than for binary bundles: the
  // reader either errors out or returns a structurally consistent dataset.
  for (std::size_t c = 0; c < 4; ++c) {
    ctx.begin_case();
    std::string what;
    const std::string bad = corrupt(ctx.rng, csv, &what);
    std::istringstream is(bad);
    const auto ds = data::try_read_csv(is, fs);
    if (ds.ok()) {
      ctx.check_eq(ds->landmark_available.size(), fs.landmark_count(),
                   "parsed landmark mask width (" + what + ")");
      for (const data::Sample& s : ds->samples)
        ctx.check_eq(s.features.size(), fs.total(),
                     "parsed sample width (" + what + ")");
    } else {
      ctx.check(true, "clean rejection");
    }
  }
}

void check_binary_io_fuzz(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;

  // Case 1: clean roundtrip is exact.
  ctx.begin_case();
  const std::uint64_t u = rng.next_u64();
  std::vector<double> doubles(gen::dim(rng, 0, 12));
  for (double& d : doubles) d = rng.normal();
  std::vector<std::size_t> indices(gen::dim(rng, 0, 12));
  for (std::size_t& i : indices)
    i = static_cast<std::size_t>(rng.uniform_index(1 << 20));
  std::string text(gen::dim(rng, 0, 24), '\0');
  for (char& chr : text) chr = static_cast<char>(rng.uniform_index(256));

  std::ostringstream os(std::ios::binary);
  {
    util::BinaryWriter writer(os);
    writer.write_u64(u);
    writer.write_doubles(doubles);
    writer.write_string(text);
    writer.write_indices(indices);
    writer.write_bool(true);
  }
  const std::string clean = os.str();
  {
    std::istringstream is(clean, std::ios::binary);
    util::BinaryReader reader(is);
    ctx.check(reader.read_u64() == u, "u64 roundtrip");
    ctx.check(reader.read_doubles() == doubles, "doubles roundtrip");
    ctx.check(reader.read_string() == text, "string roundtrip");
    ctx.check(reader.read_indices() == indices, "indices roundtrip");
    ctx.check(reader.read_bool(), "bool roundtrip");
    ctx.check(reader.remaining() == 0, "stream fully consumed");
  }

  // Case 2: a deterministic allocation bomb — a length field claiming more
  // elements than the whole stream holds must throw before allocating.
  ctx.begin_case();
  {
    std::ostringstream bomb_os(std::ios::binary);
    util::BinaryWriter writer(bomb_os);
    writer.write_u64((1ULL << 24) + rng.uniform_index(1ULL << 24));
    writer.write_u64(rng.next_u64());  // a few real bytes, nowhere near enough
    std::istringstream is(bomb_os.str(), std::ios::binary);
    util::BinaryReader reader(is);
    try {
      const auto bombed = reader.read_doubles();
      ctx.fail("length bomb returned " + std::to_string(bombed.size()) +
               " doubles instead of throwing");
    } catch (const std::exception&) {
      ctx.check(true, "length bomb rejected");
    }
  }

  // Case 3: corrupted streams never crash the primitive readers; they
  // either produce values or throw std::runtime_error.
  ctx.begin_case();
  {
    const std::string bad = corrupt(rng, clean);
    std::istringstream is(bad, std::ios::binary);
    util::BinaryReader reader(is);
    try {
      (void)reader.read_u64();
      (void)reader.read_doubles();
      (void)reader.read_string();
      (void)reader.read_indices();
      (void)reader.read_bool();
    } catch (const std::exception&) {
      // Clean rejection is one of the two allowed outcomes.
    }
    ctx.check(true, "corrupt primitive stream handled without a crash");
  }
}

namespace {

/// Whole-line reference parse: the lines a getline loop would deliver for
/// *terminated* input. The unterminated tail is excluded on purpose — the
/// incremental framer must hold it back until its newline arrives.
std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') {
      out.emplace_back(bytes, start, i - start);
      start = i + 1;
    }
  }
  return out;
}

/// Pop every currently-complete line out of `framer`.
std::vector<std::string> pop_all(serve::LineFramer& framer) {
  std::vector<std::string> out;
  std::string line;
  while (framer.next(&line)) out.push_back(line);
  return out;
}

/// One adversarial wire line (no terminator): a valid request rendered by
/// format_request, a garbage line salted with NUL and '\r' bytes, or an
/// empty line — the three shapes a hostile client can interleave.
std::string random_wire_line(util::Rng& rng) {
  switch (rng.uniform_index(4)) {
    case 0:
      return std::string();  // empty lines must frame and pass through
    case 1: {                // binary garbage, NULs and CRs included
      std::string line(1 + rng.uniform_index(40), '\0');
      for (char& chr : line) {
        do {
          chr = static_cast<char>(rng.uniform_index(256));
        } while (chr == '\n');
      }
      return line;
    }
    default: {  // a well-formed request over the tiny deployment
      serve::WireRequest wire;
      wire.id = rng.next_u64() % 1000;
      wire.request.features.resize(tiny_world_space().total());
      for (double& f : wire.request.features) f = rng.normal();
      return serve::format_request(wire);
    }
  }
}

}  // namespace

void check_wire_framing_fuzz(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;

  // Case 1: random adversarial stream, fed in random-sized chunks, must
  // frame byte-identically to whole-line parsing — with a random
  // unterminated tail held back, not delivered.
  ctx.begin_case();
  {
    std::string stream;
    const std::size_t lines = 1 + rng.uniform_index(12);
    for (std::size_t i = 0; i < lines; ++i)
      stream += random_wire_line(rng) + "\n";
    std::string tail;  // maybe leave a partial line dangling
    if (rng.bernoulli(0.5)) {
      tail = random_wire_line(rng);
      stream += tail;
    }
    const std::vector<std::string> expected = split_lines(stream);

    serve::LineFramer framer;
    std::vector<std::string> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n =
          std::min(stream.size() - off,
                   static_cast<std::size_t>(1 + rng.uniform_index(17)));
      framer.feed(stream.data() + off, n);
      off += n;
      for (auto& line : pop_all(framer)) got.push_back(std::move(line));
    }
    ctx.check(!framer.overflowed(), "normal-length stream never overflows");
    ctx.check(got == expected, "chunked framing == whole-line parsing");
    ctx.check_eq(framer.buffered(), tail.size(),
                 "unterminated tail held back, not delivered");
  }

  // Case 2: one small stream split at EVERY byte boundary (two chunks);
  // each split must produce the identical line sequence.
  ctx.begin_case();
  {
    std::string stream;
    for (std::size_t i = 0; i < 3; ++i)
      stream += random_wire_line(rng) + "\n";
    const std::vector<std::string> expected = split_lines(stream);
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
      serve::LineFramer framer;
      std::vector<std::string> got;
      framer.feed(stream.data(), cut);
      for (auto& line : pop_all(framer)) got.push_back(std::move(line));
      framer.feed(stream.data() + cut, stream.size() - cut);
      for (auto& line : pop_all(framer)) got.push_back(std::move(line));
      if (got != expected) {
        ctx.fail("split at byte " + std::to_string(cut) +
                 " changed the framed lines");
        return;
      }
    }
    ctx.check(true, "every two-chunk split framed identically");
  }

  // Case 3: interleaved partial requests across many connections — each
  // framer sees its own stream in fragments, round-robin with the others,
  // and must be unaffected by the interleaving.
  ctx.begin_case();
  {
    const std::size_t conns = 2 + rng.uniform_index(6);
    std::vector<std::string> streams(conns);
    std::vector<std::vector<std::string>> expected(conns);
    std::vector<serve::LineFramer> framers(conns);
    std::vector<std::vector<std::string>> got(conns);
    std::vector<std::size_t> offsets(conns, 0);
    for (std::size_t c = 0; c < conns; ++c) {
      const std::size_t lines = 1 + rng.uniform_index(6);
      for (std::size_t i = 0; i < lines; ++i)
        streams[c] += random_wire_line(rng) + "\n";
      expected[c] = split_lines(streams[c]);
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t c = 0; c < conns; ++c) {
        if (offsets[c] >= streams[c].size()) continue;
        const std::size_t n = std::min(
            streams[c].size() - offsets[c],
            static_cast<std::size_t>(1 + rng.uniform_index(9)));
        framers[c].feed(streams[c].data() + offsets[c], n);
        offsets[c] += n;
        for (auto& line : pop_all(framers[c]))
          got[c].push_back(std::move(line));
        progress = true;
      }
    }
    for (std::size_t c = 0; c < conns; ++c) {
      if (got[c] != expected[c]) {
        ctx.fail("interleaving corrupted connection " + std::to_string(c));
        return;
      }
    }
    ctx.check(true, "interleaved framers stayed independent");
  }

  // Case 4: the length cap. An unterminated run past max_line_bytes makes
  // the framer sticky-overflowed; lines completed beforehand stay
  // poppable, and nothing fed afterwards is ever delivered.
  ctx.begin_case();
  {
    const std::size_t cap = 16 + rng.uniform_index(48);
    serve::LineFramer framer(cap);
    framer.feed("ok\n");
    const std::string big(cap + 1 + rng.uniform_index(64), 'x');
    std::size_t off = 0;  // dribble the oversized line in small chunks
    while (off < big.size()) {
      const std::size_t n = std::min(
          big.size() - off, static_cast<std::size_t>(1 + rng.uniform_index(7)));
      framer.feed(big.data() + off, n);
      off += n;
    }
    ctx.check(framer.overflowed(), "cap crossing flips overflowed()");
    std::string line;
    ctx.check(framer.next(&line) && line == "ok",
              "line completed before the overflow stays poppable");
    ctx.check(!framer.next(&line), "no line after the overflow");
    framer.feed("\nlate\n");  // terminator + a fresh line: still dead
    ctx.check(!framer.next(&line) && framer.overflowed(),
              "overflow is sticky; later feeds are ignored");
  }

  // Case 5: an oversized line that IS terminated must still trip the cap
  // (a '\n' does not amnesty a line the reader refused to buffer).
  ctx.begin_case();
  {
    const std::size_t cap = 16;
    serve::LineFramer framer(cap);
    const std::string big(cap + 1 + rng.uniform_index(32), 'y');
    framer.feed("first\n" + big + "\nsecond\n");
    std::string line;
    ctx.check(framer.next(&line) && line == "first",
              "line before the oversized one still frames");
    ctx.check(!framer.next(&line),
              "nothing after the oversized line is delivered");
    ctx.check(framer.overflowed(), "terminated oversized line trips the cap");
  }
}

}  // namespace diagnet::testkit::fuzz
