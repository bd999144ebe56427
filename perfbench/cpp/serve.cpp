// serve_4k: the operator's path. The 4000-AS world of seed 42 is built,
// written as a flat v3 snapshot and served by HttpServer with the daemon's
// defaults (epoll front end, four loops, an EngineLoader that re-maps the
// flat file on POST /reloadz). One client thread drives nproc / 2
// keep-alive data connections, each a closed loop, through a request mix
// generated from --seed; one more connection posts /reloadz on a fixed
// cadence. The client thread busy-polls its sockets. Every response is
// compared with an answer ServeTruth computed from the Scenario, the
// inference results and BiasAudit.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "core/parallel.hpp"
#include "core/snapshot_builder.hpp"
#include "expected.hpp"
#include "io/flat_snapshot.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "serve/engine_hub.hpp"
#include "serve/http_parser.hpp"
#include "serve/http_server.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

using namespace asrel;

constexpr int kAsCount = 4000;
constexpr std::uint64_t kWorldSeed = 42;
constexpr int kSetups = 3;
constexpr int kServerLoops = 4;  // asrel_serve's --threads default
constexpr int kInflates = 5;
/// One round of the request mix; runs end on a round boundary.
constexpr std::size_t kRound = 8192;
/// The reload cadence is the epoch interval of the README's live-mode
/// example (asrel_serve --stream-interval-ms 500).
constexpr auto kReloadEvery = std::chrono::milliseconds{500};
/// Connections reconnect once per window. The epoll front end hands a
/// new connection to whichever loop wakes first, so two busy connections
/// may share a loop while another idles; a 20 s run samples ~100 placements
/// instead of betting its whole throughput on one. Throughput and latency
/// are taken per window and reported as their median over the run's full
/// windows, so CPU taken by other tenants of the host in a burst moves a
/// few windows, not the run.
constexpr auto kWindow = std::chrono::milliseconds{200};
/// The mix follows asrel_loadgen --mode mixed where that tool sends the
/// route: in every block of 64 requests one is a report, and the rest are
/// /rel lookups over 1024 observed links (loadgen samples
/// /links?limit=1024). /as, /links and /snapshot, which loadgen does not
/// send, take one request per block each.
constexpr std::size_t kBlock = 64;
constexpr std::size_t kAsSlot = 15;
constexpr std::size_t kLinksSlot = 31;
constexpr std::size_t kSnapshotSlot = 47;
constexpr std::size_t kReportSlot = 63;
constexpr std::size_t kLinksLimit = 1024;
/// /rel keys: the observed links plus unknown pairs, drawn Zipf(1).
constexpr std::size_t kRelObserved = 1024;
constexpr std::size_t kRelUnknown = 256;
constexpr double kZipfExponent = 1.0;

struct Request {
  std::string wire;
  std::uint32_t expected = 0;  ///< index into the expected bodies
};

/// Report- and /rel-cache counters summed over every engine the hub ever
/// served: each engine adds its own when it is released.
struct CacheTotals {
  std::mutex mutex;
  serve::CacheStats rel;
  serve::CacheStats report;
  void add(const serve::QueryEngine& engine) {
    const auto rel_stats = engine.rel_cache_stats();
    const auto report_stats = engine.cache_stats();
    std::lock_guard lock{mutex};
    rel.hits += rel_stats.hits;
    rel.misses += rel_stats.misses;
    report.hits += report_stats.hits;
    report.misses += report_stats.misses;
  }
};

std::shared_ptr<const serve::QueryEngine> make_engine(
    std::shared_ptr<const io::FlatView> view,
    const std::shared_ptr<CacheTotals>& totals) {
  return std::shared_ptr<const serve::QueryEngine>(
      new serve::QueryEngine(std::move(view)),
      [totals](const serve::QueryEngine* engine) {
        totals->add(*engine);
        delete engine;
      });
}

/// One served world: what set-up builds and the load runs against. The
/// server is declared after what it serves, so it stops first.
struct Served {
  std::unique_ptr<core::Scenario> scenario;
  std::shared_ptr<serve::EngineHub> hub;
  std::unique_ptr<serve::AsrelService> service;
  std::unique_ptr<serve::HttpServer> server;
  std::shared_ptr<CacheTotals> totals = std::make_shared<CacheTotals>();
};

std::unique_ptr<Served> set_up(const core::ScenarioParams& params,
                               const std::string& flat_path) {
  auto served = std::make_unique<Served>();
  {
    obs::TraceSpan span{"bench.core.scenario_build"};
    served->scenario = core::Scenario::build(params);
  }
  io::Snapshot snapshot;
  {
    obs::TraceSpan span{"bench.core.build_snapshot"};
    snapshot = core::build_snapshot(*served->scenario);
  }
  std::string error;
  {
    obs::TraceSpan span{"bench.io.save_flat_snapshot_file"};
    if (!io::save_flat_snapshot_file(snapshot, flat_path, &error)) {
      throw std::runtime_error{"flat save failed: " + error};
    }
  }
  std::shared_ptr<const io::FlatView> view;
  {
    obs::TraceSpan span{"bench.io.flat_open_verified"};
    view = io::FlatView::open_file(flat_path, &error, /*deep_verify=*/true);
  }
  if (view == nullptr) throw std::runtime_error{"flat open failed: " + error};
  const auto totals = served->totals;
  serve::EngineHub::EngineLoader loader =
      [flat_path, totals](
          std::string* load_error) -> std::shared_ptr<const serve::QueryEngine> {
    std::shared_ptr<const io::FlatView> next;
    {
      obs::TraceSpan span{"bench.io.flat_open"};
      next = io::FlatView::open_file(flat_path, load_error,
                                     /*deep_verify=*/false);
    }
    if (next == nullptr) return nullptr;
    return make_engine(std::move(next), totals);
  };
  served->hub = std::make_shared<serve::EngineHub>(
      make_engine(std::move(view), totals), std::move(loader));
  served->service = std::make_unique<serve::AsrelService>(served->hub);
  serve::HttpServerOptions options;
  options.worker_threads = kServerLoops;
  options.metrics_routes = serve::AsrelService::metric_routes();
  serve::AsrelService* service = served->service.get();
  served->server = std::make_unique<serve::HttpServer>(
      [service](const serve::HttpRequest& request) {
        if (request.method == "POST" && request.path == "/reloadz") {
          obs::TraceSpan span{"bench.serve.hub_reload"};
          return service->handle(request);
        }
        return service->handle(request);
      },
      options);
  if (!served->server->start(&error)) {
    throw std::runtime_error{"server start failed: " + error};
  }
  return served;
}

/// The request mix of one round, and the expected body of each distinct
/// target, from --seed.
struct Mix {
  std::vector<Request> round;
  std::vector<std::string> expected;
};

Mix make_mix(std::uint64_t seed, const core::Scenario& scenario,
             const ServeTruth& truth) {
  Rng rng{seed};
  const auto& graph = scenario.world().graph;
  const auto links = scenario.observed().link_order();
  std::vector<std::pair<asn::Asn, asn::Asn>> keys;
  for (std::size_t i = 0; i < kRelObserved; ++i) {
    const auto& link = links[rng.below(links.size())];
    keys.emplace_back(link.a, link.b);
  }
  for (std::size_t i = 0; i < kRelUnknown; ++i) {
    const asn::Asn a = graph.asn_of(
        static_cast<topo::NodeId>(rng.below(graph.node_count())));
    asn::Asn b = graph.asn_of(
        static_cast<topo::NodeId>(rng.below(graph.node_count())));
    // Half the unknown keys name an AS the world does not hold at all.
    if (i % 2 == 1) b = asn::Asn{4200000000u + static_cast<std::uint32_t>(i)};
    if (a == b) continue;
    keys.emplace_back(a, b);
  }
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  std::vector<double> zipf_cdf(keys.size());
  double mass = 0;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    mass += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    zipf_cdf[r] = mass;
  }

  Mix mix;
  std::unordered_map<std::string, std::uint32_t> index;
  const auto add = [&](std::string target, auto&& body) {
    auto [it, fresh] = index.emplace(
        target, static_cast<std::uint32_t>(mix.expected.size()));
    if (fresh) mix.expected.push_back(body());
    mix.round.push_back(Request{
        .wire = "GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n",
        .expected = it->second});
  };
  static const char* const kReports[] = {
      "/report/regional", "/report/topological", "/report/table?algo=asrank",
      "/report/table?algo=problink", "/report/table?algo=toposcope"};
  for (std::size_t i = 0; i < kRound; ++i) {
    const std::size_t slot = i % kBlock;
    if (slot == kAsSlot) {
      const asn::Asn asn = graph.asn_of(
          static_cast<topo::NodeId>(rng.below(graph.node_count())));
      add("/as?asn=" + std::to_string(asn.value()),
          [&] { return truth.as(asn); });
    } else if (slot == kLinksSlot) {
      add("/links?limit=" + std::to_string(kLinksLimit),
          [&] { return truth.links(kLinksLimit); });
    } else if (slot == kSnapshotSlot) {
      add("/snapshot", [&] { return truth.snapshot(); });
    } else if (slot == kReportSlot) {
      // Like loadgen, the reports take turns.
      const std::size_t report = (i / kBlock) % 5;
      add(kReports[report], [&] {
        return report < 2 ? truth.coverage(report == 0)
                          : truth.table(report - 2);
      });
    } else {
      const double u = rng.unit() * mass;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
          zipf_cdf.begin());
      auto [a, b] = keys[std::min(rank, keys.size() - 1)];
      if (rng.below(2) == 0) std::swap(a, b);
      add("/rel?a=" + std::to_string(a.value()) +
              "&b=" + std::to_string(b.value()),
          [&] { return truth.rel(a, b); });
    }
  }
  return mix;
}

/// Half the hardware threads drive data connections, each a closed loop
/// with one request outstanding, so with the client thread a hardware
/// thread stays free and time taken by other tenants of the host can be
/// absorbed by migration rather than stalling a closed loop. Throughput is
/// therefore bound by round-trip latency, not by the server's capacity.
unsigned data_connections() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error{"socket() failed"};
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
    ::close(fd);
    throw std::runtime_error{"connect() failed"};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

struct Response {
  int status = 0;
  std::string body;
};

/// Takes one complete response off the front of `in`, if there is one.
bool take_response(std::string& in, Response& out) {
  const std::size_t head = in.find("\r\n\r\n");
  if (head == std::string::npos) return false;
  static constexpr std::string_view kLength = "\r\nContent-Length: ";
  const std::size_t at = in.find(kLength);
  if (at == std::string::npos || at > head) {
    throw std::runtime_error{"response without Content-Length"};
  }
  const std::size_t length = std::strtoull(in.c_str() + at + kLength.size(),
                                           nullptr, 10);
  if (in.size() < head + 4 + length) return false;
  out.status = std::atoi(in.c_str() + 9);  // "HTTP/1.1 NNN"
  out.body.assign(in, head + 4, length);
  in.erase(0, head + 4 + length);
  return true;
}

struct Conn {
  int fd = -1;
  Clock::time_point reconnect_at;
  std::string in;
  bool busy = false;
  bool reload = false;
  const Request* request = nullptr;
  Clock::time_point sent;
};

/// Round-trip figures of one full window.
struct WindowStats {
  double rps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

struct Load {
  std::vector<WindowStats> windows;
  std::vector<float> open_window_us;  ///< round trips of the open window
  std::uint64_t completed = 0;
  double latency_sum_us = 0;
  std::vector<double> reload_us;
  std::uint64_t reloads = 0;
  /// Largest resident set of the process, sampled at every window
  /// boundary; the samples are the server's memory plus the client's
  /// fixed-size buffers and request mix.
  double peak_rss_mb = 0;
  double wall_s = 0;
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;

  /// Summarises the open window and starts the next one. The samples are
  /// dropped, so the client's memory does not grow with the requests it
  /// completes.
  void close_window() {
    const auto& samples = open_window_us;
    windows.push_back(WindowStats{
        .rps = static_cast<double>(samples.size()) /
               std::chrono::duration<double>(kWindow).count(),
        .p50_us = quantile(samples, 0.5),
        .p90_us = quantile(samples, 0.9),
        .p99_us = quantile(samples, 0.99)});
    open_window_us.clear();
    peak_rss_mb = std::max(peak_rss_mb, resident_mb());
  }
};

Load drive(std::uint16_t port, const Mix& mix, double seconds,
           std::uint64_t first_epoch, Outcome& outcome) {
  std::vector<Conn> conns(data_connections() + 1);  // + the reload connection
  for (auto& conn : conns) conn.fd = connect_to(port);
  conns.back().reload = true;
  static const std::string kReload =
      "POST /reloadz HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n";

  Load load;
  load.open_window_us.reserve(1 << 16);
  load.peak_rss_mb = resident_mb();
  std::uint64_t next_epoch = first_epoch + 1;
  std::size_t position = 0;
  bool issuing = true;
  std::vector<pollfd> polled;
  std::vector<Conn*> polled_conns;
  const auto began = Clock::now();
  load.begin_us = trace_now_us();
  const auto deadline =
      began + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto next_reload = began + kReloadEvery;
  for (auto& conn : conns) conn.reconnect_at = began + kWindow;

  const auto fail = [&](const std::string& what) {
    ++outcome.failed;
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  };

  for (;;) {
    const auto now = Clock::now();
    for (auto& conn : conns) {
      if (conn.busy || !issuing) continue;
      if (conn.reload && now < next_reload) continue;
      if (now >= conn.reconnect_at) {
        ::close(conn.fd);
        conn.fd = connect_to(port);
        conn.in.clear();
        while (conn.reconnect_at <= now) conn.reconnect_at += kWindow;
      }
      if (conn.reload) {
        next_reload += kReloadEvery;
        conn.request = nullptr;
        ++outcome.attempted;
        conn.sent = Clock::now();
        conn.busy = send_all(conn.fd, kReload);
        if (!conn.busy) fail("reload send failed");
        continue;
      }
      const Request& request = mix.round[position % kRound];
      ++position;
      conn.request = &request;
      ++outcome.attempted;
      conn.sent = Clock::now();
      conn.busy = send_all(conn.fd, request.wire);
      if (!conn.busy) fail("request send failed");
      // Whole rounds only: stop issuing on a round boundary.
      if (position % kRound == 0 && conn.sent >= deadline) issuing = false;
    }
    polled.clear();
    polled_conns.clear();
    for (auto& conn : conns) {
      if (!conn.busy) continue;
      polled.push_back({conn.fd, POLLIN, 0});
      polled_conns.push_back(&conn);
    }
    if (polled.empty()) {
      if (!issuing) break;
      continue;
    }
    // Busy-poll: the client never sleeps, so a round trip holds the
    // server's wake-up latency but not the client's own.
    if (::poll(polled.data(), polled.size(), 0) <= 0) continue;
    for (std::size_t p = 0; p < polled.size(); ++p) {
      if (polled[p].revents == 0) continue;
      Conn& conn = *polled_conns[p];
      char buffer[65536];
      const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error{"server closed a connection"};
      if (n < 0) continue;
      conn.in.append(buffer, static_cast<std::size_t>(n));
      Response response;
      if (!take_response(conn.in, response)) continue;
      const auto done = Clock::now();
      conn.busy = false;
      const double us =
          std::chrono::duration<double, std::micro>(done - conn.sent).count();
      if (conn.reload) {
        ++load.reloads;
        load.reload_us.push_back(us);
        const std::string want = "{\"ok\":true,\"epoch\":" +
                                 std::to_string(next_epoch) + "}";
        if (response.status != 200 || response.body != want) {
          fail("reload answered " + std::to_string(response.status) + " " +
               response.body);
          outcome.correct = false;
        }
        ++next_epoch;
        continue;
      }
      ++load.completed;
      load.latency_sum_us += us;
      const auto window = static_cast<std::size_t>((done - began) / kWindow);
      while (load.windows.size() < window) load.close_window();
      load.open_window_us.push_back(static_cast<float>(us));
      if (response.status != 200 ||
          response.body != mix.expected[conn.request->expected]) {
        fail("wrong answer to " +
             conn.request->wire.substr(0, conn.request->wire.find('\r')));
        outcome.correct = false;
      }
    }
    if (issuing && Clock::now() >= deadline && position % kRound == 0) {
      issuing = false;
    }
  }
  load.end_us = trace_now_us();
  const auto ended = Clock::now();
  load.wall_s = seconds_between(began, ended);
  // Close the windows that ended; the last one, cut short by the end of
  // the run, is left out.
  const auto full = static_cast<std::size_t>((ended - began) / kWindow);
  while (load.windows.size() < full) load.close_window();
  for (auto& conn : conns) ::close(conn.fd);
  return load;
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome outcome;
  core::ScenarioParams params;
  params.topology.as_count = kAsCount;
  params.topology.seed = kWorldSeed;
  params.threads = options.threads;
  const std::string flat_path = options.out_dir + "/serve_4k.flat";

  // ---- set-up: world, snapshot build, flat save, open, server start ----
  std::vector<double> setup_s;
  std::vector<Window> setup_windows;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetups; ++i) {
    served.reset();
    const auto began = Clock::now();
    const std::uint64_t began_us = trace_now_us();
    served = set_up(params, flat_path);
    setup_windows.push_back({began_us, trace_now_us()});
    setup_s.push_back(seconds_between(began, Clock::now()));
  }

  // The expected answers and the request mix come from --seed and the
  // Scenario alone; the server only receives the requests. The Scenario
  // and the answers' own inference runs are freed, and the freed heap
  // handed back to the system, before the load starts, so the resident
  // set sampled under load is the server's (a daemon serving a flat file
  // holds no Scenario) plus the client's mix.
  Mix mix;
  {
    const ServeTruth truth{*served->scenario};
    mix = make_mix(options.seed, *served->scenario, truth);
  }
  served->scenario.reset();
  ::malloc_trim(0);

  // ---- measured: closed-loop traffic beside periodic reloads ----
  const PoolUse pool{PoolCounters::read()};
  const Load load = drive(served->server->port(), mix, options.seconds,
                          served->hub->epoch(), outcome);
  const double requests = static_cast<double>(load.completed);
  std::vector<double> window_rps;
  std::vector<double> window_p50_us;
  std::vector<double> window_p90_us;
  std::vector<double> window_p99_us;
  for (const auto& window : load.windows) {
    window_rps.push_back(window.rps);
    window_p50_us.push_back(window.p50_us);
    window_p90_us.push_back(window.p90_us);
    window_p99_us.push_back(window.p99_us);
  }
  const double rps = median(window_rps);
  const double p50_us = median(window_p50_us);
  const double p90_us = median(window_p90_us);
  const double p99_us = median(window_p99_us);
  const double reload_p50_us = median(load.reload_us);
  outcome.check(served->hub->epoch() == 1 + load.reloads,
                "hub epoch counts every reload");

  outcome.e2e("setup_s", median(setup_s), "s");
  outcome.e2e("throughput_per_s", rps, "1/s");
  outcome.e2e("latency_p50_ms", p50_us / 1e3, "ms");
  // The gated tail is the p90: on a 4-vCPU guest the p99 of a ~30 us round
  // trip follows CPU taken by other tenants of the host (IQR 36% of the
  // median over ten runs). The p99 stays in the record.
  outcome.e2e("latency_tail_ms", p90_us / 1e3, "ms");
  outcome.e2e("refresh_p50_ms", reload_p50_us / 1e3, "ms");
  outcome.e2e("peak_rss_mb", load.peak_rss_mb, "MiB");

  outcome.note("as_count", kAsCount);
  outcome.note("world_seed", static_cast<double>(kWorldSeed));
  outcome.note("traffic_seed", static_cast<double>(options.seed));
  outcome.note("data_connections",
               static_cast<double>(data_connections()));
  outcome.note("server_loops", kServerLoops);
  outcome.note("reload_every_ms", static_cast<double>(kReloadEvery.count()));
  outcome.note("rel_keys", static_cast<double>(kRelObserved + kRelUnknown));
  outcome.note("requests", requests);
  outcome.note("reloads", static_cast<double>(load.reloads));
  outcome.note("window_ms", static_cast<double>(kWindow.count()));
  outcome.note("windows", static_cast<double>(window_rps.size()));
  outcome.note("requests_per_s", rps);
  outcome.note("requests_per_s_whole_run", requests / load.wall_s);
  outcome.note("request_p50_us", p50_us);
  outcome.note("request_p90_us", p90_us);
  outcome.note("request_p99_us", p99_us);
  outcome.note("reload_p50_us", reload_p50_us);

  if (options.trace) {
    // Stop serving before reading the spans; the hub (and so the current
    // engine's caches) stays alive for the direct handler calls below.
    served->server->stop();
    const SpanIndex index{obs::Tracer::instance().collect()};
    const std::vector<Window> run{{load.begin_us, load.end_us}};
    outcome.layer("core.build_snapshot_ms",
                  index.total_ms("bench.core.build_snapshot", &setup_windows) /
                      kSetups,
                  "ms");
    outcome.layer("io.flat_save_ms",
                  index.total_ms("bench.io.save_flat_snapshot_file",
                                 &setup_windows) /
                      kSetups,
                  "ms");
    const auto mean_us = [&](const char* name, const std::vector<Window>& in) {
      const auto spans = index.named(name, &in);
      return spans.empty() ? 0.0 : index.total_ms(name, &in) * 1e3 /
                                       static_cast<double>(spans.size());
    };
    outcome.layer("io.flat_open_us", mean_us("bench.io.flat_open", run), "us");
    outcome.layer("serve.hub_reload_us", mean_us("bench.serve.hub_reload", run),
                  "us");
    std::uint64_t server_us = 0;
    std::uint64_t server_spans = 0;
    for (const auto& span : index.spans()) {
      if (!span.name.starts_with("http /") || span.name == "http /reloadz") {
        continue;
      }
      if (!inside(span, run)) continue;
      server_us += span.dur_us;
      ++server_spans;
    }
    const double mean_server_us =
        server_spans == 0 ? 0.0
                          : static_cast<double>(server_us) /
                                static_cast<double>(server_spans);
    outcome.layer("serve.server_us", mean_server_us, "us");
    outcome.layer("serve.outside_server_us",
                  load.latency_sum_us / requests - mean_server_us, "us");
    // The inflate a report request pays after a reload, timed where it
    // happens: the first QueryEngine::snapshot() of a freshly opened
    // engine, as in a traffic-free reload.
    std::vector<double> inflate_ms;
    for (int i = 0; i < kInflates; ++i) {
      std::string error;
      auto view = io::FlatView::open_file(flat_path, &error,
                                          /*deep_verify=*/false);
      if (view == nullptr) throw std::runtime_error{"flat open failed: " + error};
      const serve::QueryEngine engine{std::move(view)};
      const auto began = Clock::now();
      (void)engine.snapshot();
      inflate_ms.push_back(seconds_between(began, Clock::now()) * 1e3);
    }
    outcome.layer("serve.report_inflate_ms", median(inflate_ms), "ms");

    // Cache use over every engine served so far (retired ones reported
    // themselves when released).
    serve::CacheStats rel;
    serve::CacheStats report;
    {
      const auto current = served->hub->current();
      std::lock_guard lock{served->totals->mutex};
      rel = served->totals->rel;
      report = served->totals->report;
      rel.hits += current->rel_cache_stats().hits;
      rel.misses += current->rel_cache_stats().misses;
      report.hits += current->cache_stats().hits;
      report.misses += current->cache_stats().misses;
    }
    const auto ratio = [](const serve::CacheStats& stats) {
      const double lookups = static_cast<double>(stats.hits + stats.misses);
      return lookups == 0 ? 0.0 : static_cast<double>(stats.hits) / lookups;
    };
    outcome.layer("serve.rel_cache_hit_ratio", ratio(rel), "ratio");
    outcome.layer("serve.rel_cache_lookups",
                  static_cast<double>(rel.hits + rel.misses), "count");
    outcome.layer("serve.report_cache_hit_ratio", ratio(report), "ratio");
    outcome.layer("serve.report_cache_lookups",
                  static_cast<double>(report.hits + report.misses), "count");

    // Parse and handle, called directly on the round's own requests.
    std::vector<serve::HttpRequest> parsed(mix.round.size());
    constexpr int kPasses = 4;
    const auto parse_began = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < mix.round.size(); ++i) {
        std::size_t header_len = 0;
        const std::string& wire = mix.round[i].wire;
        (void)serve::find_header_end(wire, &header_len);
        parsed[i] = serve::HttpRequest{};
        if (!serve::parse_http_request(
                std::string_view{wire}.substr(0, header_len), &parsed[i])) {
          throw std::runtime_error{"benchmark request did not parse"};
        }
      }
    }
    outcome.layer("serve.parse_ns",
                  seconds_between(parse_began, Clock::now()) * 1e9 /
                      static_cast<double>(kPasses * mix.round.size()),
                  "ns");
    const auto handle_began = Clock::now();
    for (const auto& request : parsed) (void)served->service->handle(request);
    outcome.layer("serve.handle_us",
                  seconds_between(handle_began, Clock::now()) * 1e6 /
                      static_cast<double>(parsed.size()),
                  "us");
    pool.report(index, run,
                     core::ThreadPool::effective_threads(options.threads),
                     outcome);
    finish_trace(options, index, outcome);
  }
  served.reset();
  std::remove(flat_path.c_str());
  return outcome;
}

}  // namespace perfbench
