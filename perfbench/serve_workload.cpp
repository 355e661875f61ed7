// `serve_open` and `serve_closed`: the program's serving path as users run
// it — serve::DiagnosisService (default ServiceConfig) behind serve::Reactor
// (default ReactorConfig) on loopback, driven by serve::run_loadgen over
// four connections.
//
//  * serve_open: independent agents. An open-loop schedule at one fixed
//    rate, about half of the reference host's capacity, pipelined over
//    the four connections; latency counts from each request's scheduled
//    send. The pool mixes full-fleet requests with a seeded share of
//    partial fleets (landmark churn), so batches are split by mask and by
//    service.
//  * serve_closed: interactive agents, each waiting for its reply: four
//    connections with one request in flight each, all on the full fleet.
//    Batches hold at most four rows, so the batching window and transport
//    cost dominate instead of inference.
//
// The served model is trained during set-up from a fixed campaign (the
// operator's model does not change with the traffic); `--seed` draws the
// request pool from a fresh campaign and seeds the schedule.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/batch_diagnoser.h"
#include "obs/obs.h"
#include "serve/json.h"
#include "serve/loadgen.h"
#include "serve/reactor.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace serve = diagnet::serve;

namespace {

constexpr std::uint64_t kModelCampaignSeed = 0x5e12e;
constexpr std::size_t kModelSamples = 3000;
constexpr std::size_t kModelGeneralEpochs = 4;
constexpr std::size_t kModelSpecialEpochs = 1;
constexpr std::size_t kPoolSamples = 24000;
constexpr double kOpenPartialShare = 0.2;

constexpr std::size_t kSetups = 4;
constexpr std::size_t kConnections = 4;
constexpr double kOpenRps = 2000.0;
// Windows are short and many so that a percentile over them can set aside
// the host's scheduling noise: on the reference host (4 vCPU) a thread
// loses its CPU for 1-6 ms several times a second, more when neighbouring
// tenants are busy, and a window holding such a gap gets its tail from the
// gap rather than the server. Windows of 100 requests (50 ms open, about
// 80 ms closed) leave most windows clear of gaps even under load; with 500
// the quietest tenth of windows moved by 60-80 % when a background load
// was added, with 100 by under 15 %.
constexpr std::size_t kWindowRequests = 100;
constexpr std::size_t kMinWindows = 3;
constexpr double kWarmUpS = 1.0;
constexpr std::size_t kClosedWarmUpRequests = 1000;
/// A generator whose median window finishes this much later than its
/// schedule did not offer the load it claims: the run is invalid. (One
/// late window is a host stall, which the latency already counts.)
constexpr double kMaxLagS = 0.05;
constexpr std::size_t kProbeRequests = 64;
constexpr std::size_t kBitExactProbe = 512;
constexpr double kEvalSeconds = 0.4;

/// One running server plus the inputs it is measured with.
struct Server {
  std::unique_ptr<Deployment> deployment;
  data::DataSplit split;  // of the model campaign: defines "new" landmarks
  std::shared_ptr<core::DiagNetModel> model;
  std::shared_ptr<serve::ModelProvider> provider;
  std::unique_ptr<serve::DiagnosisService> service;
  std::unique_ptr<serve::Reactor> reactor;
  std::atomic<bool> stop{false};
  std::thread loop;
  util::Status loop_status;   // written by the loop thread, read after join
  util::Status setup_status;  // listen and warm-up, main thread only
  std::uint16_t port = 0;

  RequestSet pool;
  std::vector<std::string> lines;
  TrainTimes train_times;
  CampaignTimes times;
  double eval_rate = 0.0;  // offline BatchDiagnoser rows/s over the pool
  std::vector<core::DiagnoseResponse> offline;  // its responses

  // Client-side totals over every request this server was sent.
  std::uint64_t sent = 0, ok = 0;

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { shut_down(); }

  /// Stop the reactor (graceful drain), then the service. Idempotent.
  void shut_down() {
    if (loop.joinable()) {
      stop.store(true);
      loop.join();
    }
    if (service != nullptr) service->stop();
  }
};

struct WindowStats {
  std::vector<double> p50, p99, rps, lag_s;
  std::uint64_t attempted = 0, sent = 0, ok = 0, samples = 0;
  std::uint64_t connected = 0;
  obs::LogLinearHistogram::Snapshot pooled;
};

util::StatusOr<serve::LoadgenReport> drive(Server& s, bool open_loop,
                                           std::size_t requests,
                                           std::uint64_t seed) {
  serve::LoadgenConfig config;
  config.port = s.port;
  config.requests = requests;
  config.target_rps = open_loop ? kOpenRps : 0.0;
  config.concurrency = kConnections;
  config.threads = 1;
  config.seed = seed;
  config.pool = s.lines;
  config.probe_statsz = false;
  auto report = serve::run_loadgen(config);
  if (report.ok()) {
    s.sent += report->sent;
    s.ok += report->ok;
  }
  return report;
}

/// One timed phase on one server: windows of fixed size until `seconds`
/// have passed (at least kMinWindows), each with its own percentiles and
/// rate, appended to `w`.
void timed_phase(Server& s, bool open_loop, double seconds,
                 std::uint64_t seed, WindowStats& w, RunResult& result) {
  const std::size_t per_window = kWindowRequests;
  const auto start = Clock::now();
  for (std::uint64_t i = 0;
       i < kMinWindows || seconds_since(start) < seconds; ++i) {
    w.attempted += per_window;
    auto report = drive(s, open_loop, per_window, seed * 1000 + i);
    if (!report.ok()) {
      result.fail("loadgen: " + report.status().to_string(), per_window);
      break;
    }
    const serve::LoadgenReport& r = report.value();
    w.sent += r.sent;
    w.ok += r.ok;
    w.samples += r.latency_ms.count;
    w.pooled.merge(r.latency_ms);
    w.connected = r.connected;
    w.p50.push_back(interpolated_percentile(r.latency_ms, 0.50));
    w.p99.push_back(interpolated_percentile(r.latency_ms, 0.99));
    w.rps.push_back(static_cast<double>(r.sent) / r.wall_seconds);
    const double scheduled =
        open_loop ? static_cast<double>(per_window - 1) / kOpenRps : 0.0;
    w.lag_s.push_back(open_loop ? r.wall_seconds - scheduled : 0.0);
    if (r.errors > 0) result.fail("loadgen transport errors", r.errors);
  }
}

/// Every timed request got an ok response, and the open-loop generator
/// kept to its schedule.
void check_windows(const WindowStats& w, bool open_loop, RunResult& result) {
  if (open_loop && median(w.lag_s) > kMaxLagS)
    result.fail("generator fell behind its schedule: median window lag " +
                std::to_string(median(w.lag_s)) + " s");
  result.attempted += w.attempted;
  if (w.ok < w.attempted)
    result.fail("requests without an ok response", w.attempted - w.ok);
}

std::unique_ptr<Server> set_up(const Options& opt, bool open_loop,
                               Metrics* layers) {
  auto s = std::make_unique<Server>();
  s->deployment = make_deployment(&s->times);
  const Deployment& d = *s->deployment;
  const data::Dataset model_campaign =
      generate(d, kModelSamples, kModelCampaignSeed, nullptr);
  s->split = split(d, model_campaign, kModelCampaignSeed + 1, &s->times);
  s->model = std::make_shared<core::DiagNetModel>(
      d.fs, fixed_work_config(kModelGeneralEpochs, kModelSpecialEpochs));
  s->train_times = train_model(*s->model, d, s->split.train);
  if (layers != nullptr)
    write_train_layers(s->train_times, s->model->config().coarse,
                       d.fs.landmark_count(), *layers);

  const data::Dataset traffic =
      generate(d, kPoolSamples, opt.seed * 0x9e3779b97f4a7c15ULL + 1,
               &s->times);
  s->pool = make_requests(d, s->split, traffic.samples,
                          open_loop ? kOpenPartialShare : 0.0, opt.seed);
  for (const core::DiagnoseRequest& request : s->pool.requests) {
    serve::WireRequest wire;
    wire.request = request;
    s->lines.push_back(serve::format_request(wire));
  }

  // Offline throughput of the served model over the pool, measured like
  // the train workload's: straight after training, before any serving.
  s->eval_rate = eval_passes(*s->model, s->pool.requests, kEvalSeconds,
                             &s->offline);

  s->provider = std::make_shared<serve::ModelProvider>(s->model);
  s->service = std::make_unique<serve::DiagnosisService>(s->provider);
  s->reactor = std::make_unique<serve::Reactor>(*s->service, d.fs,
                                                serve::ReactorConfig{});
  std::atomic<std::uint16_t> port{0};
  s->setup_status = s->reactor->listen(0, &port);
  if (!s->setup_status.ok()) return s;
  s->port = port.load();
  Server* raw = s.get();
  s->loop = std::thread(
      [raw] { raw->loop_status = raw->reactor->run(raw->stop); });

  // Warm-up: the first pass over fresh connections and cold caches runs
  // well below the steady rate, so it is never timed.
  const std::size_t warm =
      open_loop ? static_cast<std::size_t>(kOpenRps * kWarmUpS)
                : kClosedWarmUpRequests;
  auto report = drive(*s, open_loop, warm, opt.seed ^ 0x3a3a);
  if (!report.ok()) s->setup_status = report.status();
  return s;
}

/// Blocking line client for the probe: sends every line on one fresh
/// connection and reads as many response lines back.
util::StatusOr<std::vector<std::string>> send_lines(
    std::uint16_t port, const std::vector<std::string>& lines) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::Status::unavailable("probe: socket()");
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return util::Status::unavailable("probe: connect()");
  }
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  for (std::size_t off = 0; off < out.size();) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return util::Status::unavailable("probe: send()");
    }
    off += static_cast<std::size_t>(n);
  }
  std::vector<std::string> responses;
  std::string buffer;
  char chunk[8192];
  while (responses.size() < lines.size()) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      responses.push_back(buffer.substr(0, nl));
      buffer.erase(0, nl + 1);
    }
  }
  ::close(fd);
  return responses;
}

/// After the timed phase: the first pool requests go over the wire on a
/// fresh connection. Their responses are checked by check_wire_probe.
util::StatusOr<std::vector<std::string>> send_wire_probe(Server& s) {
  const std::size_t n = std::min(kProbeRequests, s.lines.size());
  s.sent += n;
  return send_lines(s.port, std::vector<std::string>(
                                s.lines.begin(), s.lines.begin() + n));
}

/// Each probe response must carry the top-k of the offline diagnosis of
/// the same request. Runs after shut-down: diagnose() must not overlap
/// the service's use of the model.
void check_wire_probe(
    Server& s, const util::StatusOr<std::vector<std::string>>& responses,
    Inject inject, RunResult& result) {
  const std::size_t n = std::min(kProbeRequests, s.lines.size());
  result.attempted += n;
  if (!responses.ok() || responses->size() != n) {
    result.fail("wire probe: missing responses", n);
    return;
  }
  const std::size_t top_k = serve::ReactorConfig{}.default_top_k;
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    using Kind = serve::JsonValue::Kind;
    auto tree = serve::parse_json((*responses)[i]);
    const bool object = tree.ok() && tree->kind() == Kind::Object;
    const serve::JsonValue* ok = object ? tree->find("ok") : nullptr;
    const serve::JsonValue* ids = object ? tree->find("cause_ids") : nullptr;
    if (ok == nullptr || ok->kind() != Kind::Bool || !ok->as_bool() ||
        ids == nullptr || ids->kind() != Kind::Array) {
      ++differ;
      continue;
    }
    ++s.ok;
    std::vector<std::size_t> served;
    for (const serve::JsonValue& v : ids->items())
      served.push_back(v.kind() == Kind::Number
                           ? static_cast<std::size_t>(v.as_number())
                           : SIZE_MAX);
    if (inject == Inject::kRanking && i == 0 && served.size() >= 2)
      std::swap(served[0], served[1]);
    const core::DiagnoseResponse offline =
        s.model->diagnose(s.pool.requests[i]);
    const auto& ranking = offline.diagnosis.ranking;
    const std::vector<std::size_t> expected(
        ranking.begin(), ranking.begin() + std::min(top_k, ranking.size()));
    if (!offline.ok() || served != expected) ++differ;
  }
  if (differ > 0)
    result.fail("wire probe: " + std::to_string(differ) +
                    " response(s) differ from the offline diagnosis",
                differ);
}

/// After shut-down: every request the clients sent was seen by the
/// reactor and admitted or refused by the service, and every ok the
/// clients received is a diagnosis the service completed.
void reconcile(Server& s, Inject inject, RunResult& result) {
  const serve::ReactorStats r = s.reactor->stats();
  const serve::DiagnosisService::Stats st = s.service->stats();
  const std::uint64_t ok = inject == Inject::kCount ? s.ok - 1 : s.ok;
  const auto expect = [&](bool holds, const std::string& what) {
    if (!holds) result.fail("count mismatch: " + what);
  };
  expect(s.sent == r.requests,
         "client sent " + std::to_string(s.sent) + ", reactor read " +
             std::to_string(r.requests));
  expect(r.requests == st.accepted + st.rejected,
         "reactor read " + std::to_string(r.requests) + ", service admitted " +
             std::to_string(st.accepted) + " + refused " +
             std::to_string(st.rejected));
  expect(ok == st.completed, "client ok " + std::to_string(ok) +
                                 ", service completed " +
                                 std::to_string(st.completed));
  expect(r.responses == r.requests, "reactor wrote " +
                                        std::to_string(r.responses) +
                                        " responses for " +
                                        std::to_string(r.requests));
  expect(st.rejected == 0 && st.shed == 0 && r.errors() == 0 &&
             r.protocol_errors == 0,
         "rejected/shed/errors not zero");
  if (!s.loop_status.ok())
    result.fail("reactor: " + s.loop_status.to_string());
}

/// After a server's timed phase: the wire probe, the drain, then the
/// probe and count checks.
void finish(Server& s, Inject inject, RunResult& result) {
  const auto probe_responses = send_wire_probe(s);
  s.shut_down();
  check_wire_probe(s, probe_responses, inject, result);
  reconcile(s, inject, result);
}

/// Median cost of the wire codec over the workload's own pool.
void time_wire(const Server& s, Metrics& layers) {
  std::vector<double> parse_us, format_us;
  std::size_t parsed_ok = 0, formatted_bytes = 0;
  for (const std::string& line : s.lines) {
    const auto start = Clock::now();
    const auto parsed = serve::parse_request(line);
    parse_us.push_back(seconds_since(start) * 1e6);
    parsed_ok += parsed.ok() ? 1 : 0;
  }
  const std::vector<core::DiagnoseRequest> some(
      s.pool.requests.begin(),
      s.pool.requests.begin() +
          std::min(kBitExactProbe, s.pool.requests.size()));
  const auto responses = core::BatchDiagnoser(*s.model).run(some);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto start = Clock::now();
    formatted_bytes +=
        serve::format_response(i + 1, responses[i], s.deployment->fs, 5, 1.0)
            .size();
    format_us.push_back(seconds_since(start) * 1e6);
  }
  std::printf("serve: wire codec timed over %zu parsed lines, %zu bytes out\n",
              parsed_ok, formatted_bytes);
  layers.set("serve.wire.parse_us", median(parse_us), "us");
  layers.set("serve.wire.format_us", median(format_us), "us");
}

}  // namespace

RunResult run_serve(const Options& opt, bool open_loop) {
  RunResult result;
  Metrics& e2e = result.end_to_end;
  Metrics& layers = result.per_layer;

  std::unique_ptr<Server> s;
  std::vector<double> setup_s, train_s;
  std::vector<double> eval_rates;
  WindowStats w;
  if (opt.trace) {
    obs::Registry::instance().reset_for_test();
    obs::set_enabled(true);
  }
  // Each set-up serves an equal share of the timed phase, so the windows
  // and the trainings are spread over the whole run rather than bunched:
  // the host's quiet and busy spells last seconds.
  const std::size_t setups = opt.trace ? 1 : kSetups;
  for (std::size_t i = 0; i < setups; ++i) {
    s.reset();
    const auto start = Clock::now();
    s = set_up(opt, open_loop, opt.trace ? &layers : nullptr);
    setup_s.push_back(seconds_since(start));
    train_s.push_back(s->train_times.general_s + s->train_times.specialize_s);
    eval_rates.push_back(s->eval_rate);
    if (!s->setup_status.ok()) {
      result.fail("set-up: " + s->setup_status.to_string());
      return result;
    }
    if (opt.trace) break;
    timed_phase(*s, open_loop, opt.seconds / static_cast<double>(setups),
                opt.seed * kSetups + i, w, result);
    finish(*s, opt.inject, result);
  }

  if (!opt.trace) {
    check_windows(w, open_loop, result);
  } else {
    write_setup_layers(s->times, layers);
    obs::set_enabled(false);
    WindowStats untraced;
    timed_phase(*s, open_loop, opt.seconds, opt.seed, untraced, result);
    check_windows(untraced, open_loop, result);

    obs::Registry::instance().reset_for_test();
    const serve::DiagnosisService::Stats st0 = s->service->stats();
    const serve::ReactorStats r0 = s->reactor->stats();
    obs::set_enabled(true);
    timed_phase(*s, open_loop, opt.seconds, opt.seed + 1, w, result);
    check_windows(w, open_loop, result);
    obs::set_enabled(false);
    const serve::DiagnosisService::Stats st = s->service->stats();
    const serve::ReactorStats r = s->reactor->stats();

    const double u = open_loop ? median(untraced.p50) : median(untraced.rps);
    const double t = open_loop ? median(w.p50) : median(w.rps);
    layers.set("obs.trace_overhead_pct",
               (open_loop ? (t - u) / u : (u - t) / u) * 100.0, "%");
    write_core_layers(s->model->config().coarse,
                      s->deployment->fs.landmark_count(), layers);
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    layers.set("serve.accepted", delta(st.accepted, st0.accepted), "count");
    layers.set("serve.rejected", delta(st.rejected, st0.rejected), "count");
    layers.set("serve.shed", delta(st.shed, st0.shed), "count");
    layers.set("serve.completed", delta(st.completed, st0.completed), "count");
    layers.set("serve.batches", delta(st.batches, st0.batches), "count");
    layers.set("serve.batch_size_mean",
               st.batches > st0.batches
                   ? delta(st.completed, st0.completed) /
                         delta(st.batches, st0.batches)
                   : 0.0,
               "rows");
    layers.set("serve.queue_wait_p50_ms",
               tail_percentile_ms("serve.queue_wait_ms", 0.50), "ms");
    layers.set("serve.queue_wait_p99_ms",
               tail_percentile_ms("serve.queue_wait_ms", 0.99), "ms");
    layers.set("serve.inference_p50_ms",
               tail_percentile_ms("serve.inference_ms", 0.50), "ms");
    layers.set("serve.write_back_ms", span_mean_ms("serve.batch.write_back"),
               "ms");
    layers.set("serve.server_latency_p50_ms",
               tail_percentile_ms("serve.latency_ms", 0.50), "ms");
    layers.set("serve.server_latency_p99_ms",
               tail_percentile_ms("serve.latency_ms", 0.99), "ms");
    layers.set("serve.reactor.requests", delta(r.requests, r0.requests),
               "count");
    layers.set("serve.reactor.responses", delta(r.responses, r0.responses),
               "count");
    layers.set("serve.reactor.protocol_errors",
               delta(r.protocol_errors, r0.protocol_errors), "count");
    layers.set("serve.reactor.backpressure_stalls",
               delta(r.backpressure_stalls, r0.backpressure_stalls), "count");
    layers.set("serve.reactor.errors", delta(r.errors(), r0.errors()),
               "count");
    layers.set("serve.loadgen.lag_s",
               w.lag_s.empty()
                   ? 0.0
                   : *std::max_element(w.lag_s.begin(), w.lag_s.end()),
               "s");
    layers.set("serve.loadgen.sent", static_cast<double>(w.sent), "count");
    layers.set("serve.loadgen.connected", static_cast<double>(w.connected),
               "count");
    finish(*s, opt.inject, result);
    time_wire(*s, layers);
  }

  RecallTally tally;
  tally.add(s->pool, s->offline);
  std::uint64_t mismatches = 0;
  const std::vector<core::DiagnoseRequest> probe(
      s->pool.requests.begin(),
      s->pool.requests.begin() +
          std::min(kBitExactProbe, s->pool.requests.size()));
  check_batch_equals_single(*s->model, probe, Inject::kNone, &mismatches,
                            result);
  if (opt.trace)
    layers.set("core.bitexact_mismatches", static_cast<double>(mismatches),
               "count");

  // The set-up trains the same model on the same campaign every time, so
  // host interference is the only thing that makes one training slower
  // than another: train_s is the fastest training, and the offline rate
  // the best, of the set-ups after the first. The first set-up of the
  // process also pays one-off costs (fresh pages, allocator growth,
  // thread-pool start) and ran 15-60 % slower; setup_s keeps it.
  const std::size_t first = setup_s.size() > 1 ? 1 : 0;
  e2e.set("setup_s", median(setup_s), "s");
  e2e.set("train_s", *std::min_element(train_s.begin() + first, train_s.end()),
          "s");
  e2e.set("eval_samples_per_s",
          *std::max_element(eval_rates.begin() + first, eval_rates.end()),
          "1/s");
  tally.write(e2e);
  // The latency the server sustains in its quieter windows: the lower
  // decile over windows of each window's p50 and p99 (see
  // kWindowRequests). A slower server raises every window; a host
  // preemption raises only the windows it lands in.
  e2e.set("latency_p50_ms", percentile(w.p50, 0.10), "ms");
  e2e.set("latency_p99_ms", percentile(w.p99, 0.10), "ms");
  e2e.set("ok_share",
          w.attempted == 0 ? 0.0
                           : static_cast<double>(w.ok) /
                                 static_cast<double>(w.attempted),
          "ratio");
  // Likewise the rate of the quieter windows: their upper decile.
  e2e.set("closed_rps", percentile(w.rps, 0.90), "1/s");
  std::printf(
      "serve: %zu timed window(s) of %zu requests over %zu set-up(s), %llu "
      "latency samples; window p50 lower decile %.3f ms, median %.3f ms; "
      "window p99 lower decile %.3f ms, median %.3f ms; all samples p50 "
      "%.3f ms, p99 %.3f ms\n",
      w.p99.size(), kWindowRequests, setups,
      static_cast<unsigned long long>(w.samples), percentile(w.p50, 0.10),
      median(w.p50), percentile(w.p99, 0.10), median(w.p99),
      interpolated_percentile(w.pooled, 0.50),
      interpolated_percentile(w.pooled, 0.99));
  return result;
}

}  // namespace perfbench
