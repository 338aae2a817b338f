// pmacx_chaos — randomized network-fault harness for pmacx_serve.
//
// Spawns (or connects to) a prediction server, then runs a sequence of
// chaos rounds: each round puts a freshly seeded service::ChaosProxy
// between the clients and the server and drives a mixed request load
// (STATUS / FIT / EXTRAPOLATE / PREDICT) through it while the proxy
// injects partial writes, short reads, resets, slow-loris trickle,
// delayed/duplicated frames, and mid-frame disconnects.
//
// The invariants asserted, per round and overall:
//
//   * never crash   — the server answers a direct (un-proxied) STATUS probe
//                     after every round, and (in --server mode) exits
//                     cleanly on SHUTDOWN at the end;
//   * never hang    — every request ends within a hard wall-clock bound
//                     (the client retry deadline plus one I/O timeout);
//   * bounded memory— in --server mode the server's RSS (/proc/<pid>/statm)
//                     must stay under --max-rss-mb across all rounds;
//   * definite outcome — every request ends in OK, BUSY, a server-reported
//                     error (the ParseError channel), or a client-side
//                     transport error; nothing is left in limbo.
//
// Results go to stdout and (with --json) to a machine-readable report the
// CI chaos job uploads as its artifact.  Exit 0 iff no invariant was
// violated; every seed is deterministic, so a failing report's seed replays
// the exact fault schedule.
//
// Cluster mode (--cluster N) raises the bar from "definite outcome" to
// ZERO LOSS: it spawns N supervised pmacx_serve shards with replication R,
// fronts each with its own chaos proxy, routes through an in-process
// service::Router, and SIGKILLs random replicas of the workload's digest
// mid-load (one at a time, waiting for the supervisor to respawn each victim
// before the next kill, so one replica always survives).  Every data-plane
// request must end OK — failover absorbs the kills — and every OK payload
// must be byte-identical to a direct, un-proxied single-shard run.
//
//   pmacx_chaos --server build/tools/pmacx_serve --seed-count 32
//       --json CHAOS.json s16.trace s32.trace s64.trace
//   pmacx_chaos --server build/tools/pmacx_serve --cluster 3 --replication 2
//       --requests 60 --kills 3 --json CLUSTER_CHAOS.json s16.trace s32.trace s64.trace
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "serve_spawn.hpp"
#include "service/chaos.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/shard_ring.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace pmacx;
using Clock = std::chrono::steady_clock;

void usage() {
  std::puts(
      "pmacx_chaos — randomized network-fault harness for pmacx_serve\n"
      "\n"
      "usage: pmacx_chaos (--server <pmacx_serve binary> | --port <p>) \\\n"
      "           [options] <trace files, ascending core counts>\n"
      "\n"
      "options:\n"
      "  --server <path>        spawn this pmacx_serve on an ephemeral port,\n"
      "                         chaos it, send SHUTDOWN, and check it exits 0\n"
      "  --host <addr>          server address        (default: 127.0.0.1)\n"
      "  --port <p>             server port (required unless --server)\n"
      "  --seed-count <n>       chaos rounds to run   (default: 8)\n"
      "  --seed <s>             root seed; round r uses derive_seed(s, r)\n"
      "  --requests-per-seed <n> requests per round   (default: 24)\n"
      "  --threads <n>          client threads        (default: 4)\n"
      "  --deadline-ms <ms>     per-request retry deadline (default: 15000);\n"
      "                         a request is a HANG past twice this bound\n"
      "  --max-rss-mb <mb>      server RSS cap, --server mode (default: 512)\n"
      "  --target-cores <n>     extrapolation target  (default: 256)\n"
      "  --app <name>           application model     (default: specfem3d)\n"
      "  --machine-target <m>   prediction target     (default: bluewaters-p1)\n"
      "  --json <file>          write the chaos report as JSON\n"
      "\n"
      "cluster mode (zero-loss failover under SIGKILL; requires --server):\n"
      "  --cluster <n>          spawn an n-shard supervised cluster and route\n"
      "                         through an in-process service::Router with a\n"
      "                         chaos proxy in front of every shard\n"
      "  --replication <r>      replication factor    (default: 2)\n"
      "  --requests <n>         total cluster-mode requests (default: 60)\n"
      "  --kills <k>            replicas to SIGKILL mid-load (default: 3)\n"
      "  --metrics-json <f>     write the router's pmacx-metrics-v1 snapshot\n"
      "                         (service.router.* counters) to this file\n");
}

/// Resident set size of a process in MiB, from /proc/<pid>/statm; 0 when
/// unreadable (proc gone or not Linux).
double rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/statm");
  long total = 0, resident = 0;
  if (!(in >> total >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Per-round (and aggregate) outcome tallies.  Everything here is a
/// *definite* outcome; the absence of a bucket for "still waiting" is the
/// point.
struct Outcomes {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> server_error{0};     ///< Error response (ParseError channel)
  std::atomic<std::uint64_t> transport_error{0};  ///< client-side util::Error
  std::atomic<std::uint64_t> hangs{0};            ///< wall clock blew the bound
  std::atomic<double> max_request_ms{0.0};

  void record_ms(double ms) {
    double seen = max_request_ms.load(std::memory_order_relaxed);
    while (ms > seen &&
           !max_request_ms.compare_exchange_weak(seen, ms, std::memory_order_relaxed)) {
    }
  }
};

struct ClusterParams {
  std::string serve_binary;
  std::vector<std::string> traces;
  std::uint64_t shards = 3;
  std::uint64_t replication = 2;
  std::uint64_t requests = 60;
  std::uint64_t kills = 3;
  std::uint64_t threads = 4;
  std::uint64_t root_seed = 1;
  std::uint64_t target_cores = 256;
  std::string app, machine_target, json_path, metrics_json;
};

/// Router budget for one shard hop, and the shards' own request deadline.
constexpr std::uint64_t kShardIoTimeoutMs = 120'000;

/// Cluster-mode chaos (file comment): returns the process exit code.
int run_cluster_chaos(const ClusterParams& params) {
  // --- Spawn and supervise the shard fleet. -------------------------------
  service::Topology topology;
  topology.replication = params.replication;
  for (std::uint64_t id = 0; id < params.shards; ++id)
    topology.shards.push_back({static_cast<std::uint32_t>(id), "127.0.0.1", 0});
  topology.validate();
  const std::uint64_t epoch = topology.epoch();

  tools::Supervisor supervisor(/*initial_backoff_ms=*/50);
  std::vector<std::uint16_t> shard_ports(params.shards, 0);
  for (std::uint64_t id = 0; id < params.shards; ++id) {
    tools::SpawnSpec spec;
    spec.binary = params.serve_binary;
    spec.tool = "pmacx_chaos";
    // The handler deadline matches the router's per-hop I/O budget below: a
    // cold PREDICT (machine profile build) takes over a minute under TSan,
    // and a shard must not give up on a request the router still awaits.
    spec.args = {"--bind", "127.0.0.1", "--port", "0",
                 "--shard-id", std::to_string(id), "--ring-epoch", std::to_string(epoch),
                 "--timeout-ms", std::to_string(kShardIoTimeoutMs)};
    const std::size_t index = supervisor.add(std::move(spec));
    shard_ports[id] = supervisor.port(index);  // pinned across respawns
  }

  // --- One chaos proxy per shard; the router talks through them. ----------
  std::vector<std::unique_ptr<service::ChaosProxy>> proxies;
  for (std::uint64_t id = 0; id < params.shards; ++id) {
    service::ChaosOptions chaos_options;
    chaos_options.upstream_host = "127.0.0.1";
    chaos_options.upstream_port = shard_ports[id];
    chaos_options.seed = util::derive_seed(params.root_seed, 100 + id);
    proxies.push_back(std::make_unique<service::ChaosProxy>(chaos_options));
    proxies.back()->start();
    topology.shards[id].port = proxies.back()->port();
  }

  service::RouterOptions router_options;
  router_options.topology = topology;
  // Generous budgets: a dead shard fails over instantly on connect-refused,
  // so these only bound genuinely slow responses — and under sanitizer
  // builds a cold-cache fit can legitimately take tens of seconds.  Tight
  // budgets here would misreport slowness as lost requests.
  router_options.shard_io_timeout_ms = kShardIoTimeoutMs;
  router_options.failover_deadline_ms = 240'000;
  service::Router router(router_options);
  router.start();

  // --- The request mix and its routing digest. ----------------------------
  service::Request status_request;
  status_request.type = service::MsgType::Status;
  service::Request fit_request;
  fit_request.type = service::MsgType::Fit;
  fit_request.spec.trace_paths = params.traces;
  service::Request extrapolate_request = fit_request;
  extrapolate_request.type = service::MsgType::Extrapolate;
  extrapolate_request.target_cores = static_cast<std::uint32_t>(params.target_cores);
  service::Request predict_request = extrapolate_request;
  predict_request.type = service::MsgType::Predict;
  predict_request.app = params.app;
  predict_request.machine_target = params.machine_target;
  const service::Request* mix[] = {&status_request, &fit_request, &extrapolate_request,
                                   &predict_request};

  const std::string digest =
      core::models_digest_for_files(params.traces, fit_request.spec.to_options());
  const std::vector<std::uint32_t> replicas = router.ring().replicas_for(digest);

  // --- Reference run: one direct, un-proxied call per data-plane type. ----
  // Every OK payload the cluster returns under chaos must match these bytes.
  std::string expected[4];
  {
    service::ClientOptions direct;
    direct.port = shard_ports[replicas[0]];
    direct.io_timeout_ms = 120'000;
    service::Client reference(direct);
    for (std::size_t i = 1; i < 4; ++i) {  // mix[0] is STATUS: not deterministic
      const service::Response response = reference.call(*mix[i]);
      PMACX_CHECK(response.status == service::Status::Ok,
                  "reference " + service::msg_type_name(mix[i]->type) +
                      " against shard " + std::to_string(replicas[0]) +
                      " failed (fix the setup before running chaos): " + response.body);
      expected[i] = response.body;
    }
  }

  // --- Load + killer. -----------------------------------------------------
  std::atomic<std::int64_t> budget{static_cast<std::int64_t>(params.requests)};
  std::atomic<bool> load_done{false};
  std::atomic<std::uint64_t> ok{0}, not_ok{0}, mismatches{0}, transport_errors{0};

  std::vector<std::thread> workers;
  workers.reserve(params.threads);
  std::mutex stderr_mutex;
  for (std::uint64_t t = 0; t < params.threads; ++t) {
    workers.emplace_back([&, t] {
      service::ClientOptions through_router;
      through_router.port = router.port();
      // The client<->router hop is clean (chaos lives between router and
      // shards), so generous budgets here mean any client-visible failure
      // is a real zero-loss violation, not an impatient timeout.  The I/O
      // budget must exceed the router's whole failover deadline: a request
      // the router is still sweeping replicas for is in flight, not lost.
      through_router.io_timeout_ms = 300'000;
      through_router.jitter_seed = util::derive_seed(params.root_seed, 1'000 + t);
      through_router.retry.max_attempts = 6;
      through_router.retry.overall_deadline_ms = 600'000;
      through_router.breaker.failure_threshold = 0;

      std::unique_ptr<service::Client> client;
      std::int64_t ticket;
      while ((ticket = budget.fetch_sub(1, std::memory_order_relaxed)) > 0) {
        const std::size_t index =
            (params.requests - static_cast<std::size_t>(ticket)) % 4;
        const service::Request& request = *mix[index];
        try {
          if (!client) client = std::make_unique<service::Client>(through_router);
          const service::Response response = client->call_with_retry(request);
          if (response.status == service::Status::Ok) {
            ok.fetch_add(1, std::memory_order_relaxed);
            if (index != 0 && response.body != expected[index]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
              std::scoped_lock lock(stderr_mutex);
              std::fprintf(stderr,
                           "pmacx_chaos: %s payload diverged from the direct run "
                           "(%zu vs %zu bytes)\n",
                           service::msg_type_name(request.type).c_str(),
                           response.body.size(), expected[index].size());
            }
          } else {
            not_ok.fetch_add(1, std::memory_order_relaxed);
            std::scoped_lock lock(stderr_mutex);
            std::fprintf(stderr, "pmacx_chaos: LOST request (%s): %s\n",
                         service::msg_type_name(request.type).c_str(),
                         response.body.c_str());
          }
        } catch (const util::Error& e) {
          transport_errors.fetch_add(1, std::memory_order_relaxed);
          client.reset();
          std::scoped_lock lock(stderr_mutex);
          std::fprintf(stderr, "pmacx_chaos: LOST request (transport): %s\n", e.what());
        }
      }
    });
  }

  // The killer owns the supervisor while load runs: SIGKILL one replica of
  // the workload's digest at a time, then wait until the supervisor has
  // respawned it AND it answers a direct STATUS probe before the next kill —
  // so with R >= 2 at least one replica of every digest is always alive.
  std::uint64_t kills_done = 0, restarts_seen = 0;
  bool killer_healthy = true;
  std::thread killer([&] {
    util::Rng rng(util::derive_seed(params.root_seed, 0xdeadULL));
    for (std::uint64_t kill = 0; kill < params.kills && !load_done.load(); ++kill) {
      // First kill targets the primary so at least one request provably
      // fails over (the service.router.failover counter the CI job gates
      // on); later victims are seeded-random replicas.
      const std::uint32_t victim =
          kill == 0 ? replicas[0]
                    : replicas[static_cast<std::size_t>(rng.below(replicas.size()))];
      if (!supervisor.kill_child(victim, SIGKILL)) continue;
      ++kills_done;

      // Wait for respawn + direct health before the next kill.
      const auto wait_deadline = Clock::now() + std::chrono::seconds(30);
      bool healthy = false;
      while (!healthy && Clock::now() < wait_deadline && !load_done.load()) {
        supervisor.poll();
        if (supervisor.alive(victim)) {
          try {
            service::ClientOptions probe_options;
            probe_options.port = shard_ports[victim];
            probe_options.connect_attempts = 1;
            probe_options.connect_deadline_ms = 500;
            probe_options.io_timeout_ms = 2'000;
            service::Client probe(probe_options);
            service::Request status;
            status.type = service::MsgType::Status;
            healthy = probe.call(status).status == service::Status::Ok;
          } catch (const util::Error&) {
          }
        }
        if (!healthy) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!healthy && !load_done.load()) {
        killer_healthy = false;  // respawn never came back: report and stop
        return;
      }
      restarts_seen = std::max<std::uint64_t>(restarts_seen, supervisor.restarts(victim));
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  for (std::thread& worker : workers) worker.join();
  load_done.store(true);
  killer.join();

  // --- Teardown: drain through the router (fans SHUTDOWN out to shards). --
  bool clean_shutdown = true;
  try {
    service::ClientOptions control_options;
    control_options.port = router.port();
    service::Client control(control_options);
    service::Request shutdown;
    shutdown.type = service::MsgType::Shutdown;
    control.call(shutdown);
  } catch (const std::exception& e) {
    clean_shutdown = false;
    std::fprintf(stderr, "pmacx_chaos: cluster shutdown failed: %s\n", e.what());
  }
  router.stop();
  router.wait();
  std::uint64_t chaos_resets = 0, chaos_cuts = 0, chaos_duplicates = 0, chaos_partials = 0;
  for (auto& proxy : proxies) {
    proxy->stop();
    proxy->wait();
    chaos_resets += proxy->stats().resets.load();
    chaos_cuts += proxy->stats().cuts.load();
    chaos_duplicates += proxy->stats().duplicates.load();
    chaos_partials += proxy->stats().partials.load();
  }
  supervisor.terminate_all();

  // --- Verdict. -----------------------------------------------------------
  const std::uint64_t lost =
      not_ok.load() + transport_errors.load() + mismatches.load();
  const bool passed = lost == 0 && kills_done > 0 && killer_healthy && clean_shutdown &&
                      ok.load() == params.requests;
  std::printf(
      "pmacx_chaos: cluster %s — %llu shards x R%llu, %llu requests all-OK=%llu, "
      "%llu kills (max %llu restarts), losses: %llu not-ok, %llu transport, "
      "%llu payload mismatches\n",
      passed ? "PASS" : "FAIL", static_cast<unsigned long long>(params.shards),
      static_cast<unsigned long long>(params.replication),
      static_cast<unsigned long long>(params.requests),
      static_cast<unsigned long long>(ok.load()),
      static_cast<unsigned long long>(kills_done),
      static_cast<unsigned long long>(restarts_seen),
      static_cast<unsigned long long>(not_ok.load()),
      static_cast<unsigned long long>(transport_errors.load()),
      static_cast<unsigned long long>(mismatches.load()));
  std::printf("pmacx_chaos: injected faults: %llu resets, %llu cuts, %llu dups, "
              "%llu partials; routing digest %s -> replicas",
              static_cast<unsigned long long>(chaos_resets),
              static_cast<unsigned long long>(chaos_cuts),
              static_cast<unsigned long long>(chaos_duplicates),
              static_cast<unsigned long long>(chaos_partials), digest.c_str());
  for (const std::uint32_t id : replicas) std::printf(" %u", id);
  std::printf("\n");

  if (!params.json_path.empty()) {
    std::ofstream out(params.json_path);
    PMACX_CHECK(out.good(), "cannot write " + params.json_path);
    out << "{\n"
        << "  \"passed\": " << (passed ? "true" : "false") << ",\n"
        << "  \"mode\": \"cluster\",\n"
        << "  \"shards\": " << params.shards << ",\n"
        << "  \"replication\": " << params.replication << ",\n"
        << "  \"requests\": " << params.requests << ",\n"
        << "  \"ok\": " << ok.load() << ",\n"
        << "  \"kills\": " << kills_done << ",\n"
        << "  \"losses\": {\"not_ok\": " << not_ok.load()
        << ", \"transport\": " << transport_errors.load()
        << ", \"payload_mismatch\": " << mismatches.load() << "},\n"
        << "  \"faults\": {\"resets\": " << chaos_resets << ", \"cuts\": " << chaos_cuts
        << ", \"duplicates\": " << chaos_duplicates
        << ", \"partials\": " << chaos_partials << "},\n"
        << "  \"digest\": \"" << digest << "\",\n"
        << "  \"seed\": " << params.root_seed << "\n"
        << "}\n";
  }
  if (!params.metrics_json.empty()) {
    util::metrics::RunManifest manifest = util::metrics::RunManifest::for_tool("pmacx_chaos");
    util::metrics::write_json(params.metrics_json, manifest,
                              util::metrics::Registry::global().snapshot());
  }
  return passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string server_binary, host = "127.0.0.1", json_path, metrics_json;
  std::string app = "specfem3d", machine_target = "bluewaters-p1";
  std::uint64_t port = 0, seed_count = 8, root_seed = 1, requests_per_seed = 24;
  std::uint64_t threads = 4, deadline_ms = 15'000, max_rss_mb = 512, target_cores = 256;
  std::uint64_t cluster = 0, replication = 2, cluster_requests = 60, kills = 3;
  std::vector<std::string> traces;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        PMACX_CHECK(i + 1 < argc, "option " + arg + " requires a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--server") {
        server_binary = value();
      } else if (arg == "--host") {
        host = value();
      } else if (arg == "--port") {
        port = util::parse_flag_u64(value(), arg);
      } else if (arg == "--seed-count") {
        seed_count = util::parse_flag_u64(value(), arg);
      } else if (arg == "--seed") {
        root_seed = util::parse_flag_u64(value(), arg);
      } else if (arg == "--requests-per-seed") {
        requests_per_seed = util::parse_flag_u64(value(), arg);
      } else if (arg == "--threads") {
        threads = util::parse_flag_u64(value(), arg);
      } else if (arg == "--deadline-ms") {
        deadline_ms = util::parse_flag_u64(value(), arg);
      } else if (arg == "--max-rss-mb") {
        max_rss_mb = util::parse_flag_u64(value(), arg);
      } else if (arg == "--target-cores") {
        target_cores = util::parse_flag_u64(value(), arg);
      } else if (arg == "--app") {
        app = value();
      } else if (arg == "--machine-target") {
        machine_target = value();
      } else if (arg == "--json") {
        json_path = value();
      } else if (arg == "--cluster") {
        cluster = util::parse_flag_u64(value(), arg);
      } else if (arg == "--replication") {
        replication = util::parse_flag_u64(value(), arg);
      } else if (arg == "--requests") {
        cluster_requests = util::parse_flag_u64(value(), arg);
      } else if (arg == "--kills") {
        kills = util::parse_flag_u64(value(), arg);
      } else if (arg == "--metrics-json") {
        metrics_json = value();
      } else if (util::starts_with(arg, "--")) {
        PMACX_CHECK(false, "unknown option " + arg);
      } else {
        traces.push_back(arg);
      }
    }
    PMACX_CHECK(server_binary.empty() != (port == 0),
                "give exactly one of --server or --port");
    PMACX_CHECK(seed_count > 0 && requests_per_seed > 0 && threads > 0,
                "--seed-count, --requests-per-seed, and --threads must be positive");
    PMACX_CHECK(traces.size() >= 2,
                "need at least two trace files (ascending core counts)");
    PMACX_CHECK(port <= 65535, "--port must fit a TCP port");

    if (cluster > 0) {
      PMACX_CHECK(!server_binary.empty(), "--cluster requires --server <pmacx_serve>");
      PMACX_CHECK(replication >= 2 && replication <= cluster,
                  "--replication must be in [2, --cluster] for zero-loss kills");
      PMACX_CHECK(cluster_requests > 0 && kills > 0,
                  "--requests and --kills must be positive");
      ClusterParams params;
      params.serve_binary = server_binary;
      params.traces = traces;
      params.shards = cluster;
      params.replication = replication;
      params.requests = cluster_requests;
      params.kills = kills;
      params.threads = threads;
      params.root_seed = root_seed;
      params.target_cores = target_cores;
      params.app = app;
      params.machine_target = machine_target;
      params.json_path = json_path;
      params.metrics_json = metrics_json;
      return run_cluster_chaos(params);
    }

    tools::SpawnedServer spawned;
    // Any exit before the orderly teardown below (a failed warm-up check, a
    // proxy error) stops and reaps the spawned server, as the supervisor
    // does in cluster mode: an orphan would keep our stderr open.
    struct ServerStopper {
      explicit ServerStopper(pid_t& pid) : pid(pid) {}
      ServerStopper(const ServerStopper&) = delete;
      ServerStopper& operator=(const ServerStopper&) = delete;
      ~ServerStopper() {
        if (pid <= 0) return;
        ::kill(pid, SIGTERM);
        tools::reap_by(pid, std::chrono::steady_clock::now() + std::chrono::seconds(5));
      }
      pid_t& pid;
    } stopper(spawned.pid);
    if (!server_binary.empty()) {
      spawned = tools::spawn_server(server_binary, /*metrics_json=*/"", "pmacx_chaos");
      port = spawned.port;
    }
    const auto server_port = static_cast<std::uint16_t>(port);

    // Direct (un-proxied) client options: generous timeouts, no retries —
    // used for the warm-up, the per-round liveness probe, and SHUTDOWN.
    service::ClientOptions direct;
    direct.host = host;
    direct.port = server_port;
    direct.io_timeout_ms = 60'000;

    // The request mix every round cycles through.
    service::Request status_request;
    status_request.type = service::MsgType::Status;
    service::Request fit_request;
    fit_request.type = service::MsgType::Fit;
    fit_request.spec.trace_paths = traces;
    service::Request extrapolate_request = fit_request;
    extrapolate_request.type = service::MsgType::Extrapolate;
    extrapolate_request.target_cores = static_cast<std::uint32_t>(target_cores);
    service::Request predict_request = extrapolate_request;
    predict_request.type = service::MsgType::Predict;
    predict_request.app = app;
    predict_request.machine_target = machine_target;
    const service::Request* mix[] = {&status_request, &fit_request, &extrapolate_request,
                                     &predict_request};

    // Warm the server's model cache over a clean connection, so chaos-round
    // latencies measure fault handling, not first-fit cost, and PREDICT
    // setup errors (bad app/machine names) surface before chaos starts.
    {
      service::Client warmup(direct);
      const service::Response response = warmup.call(predict_request);
      PMACX_CHECK(response.status == service::Status::Ok,
                  "warm-up PREDICT failed (fix the setup before running chaos): " +
                      response.body);
    }

    Outcomes total;
    std::uint64_t liveness_failures = 0, rounds_run = 0;
    double max_rss_seen = 0.0;
    bool rss_exceeded = false;
    // Aggregated fault-injection counts across every round's proxy.
    std::uint64_t chaos_connections = 0, chaos_resets = 0, chaos_cuts = 0,
                  chaos_delays = 0, chaos_duplicates = 0, chaos_trickles = 0,
                  chaos_partials = 0, chaos_bytes = 0;
    // A request is a hang when it outlives the retry deadline plus slack for
    // the final attempt's own I/O timeout.
    const double hang_bound_ms = static_cast<double>(2 * deadline_ms);

    struct RoundReport {
      std::uint64_t seed = 0;
      std::uint64_t ok = 0, busy = 0, server_error = 0, transport_error = 0, hangs = 0;
      double max_request_ms = 0.0;
      double rss_mb = 0.0;
      bool alive = true;
    };
    std::vector<RoundReport> rounds;

    for (std::uint64_t round = 0; round < seed_count; ++round) {
      const std::uint64_t seed = util::derive_seed(root_seed, round);
      service::ChaosOptions chaos_options;
      chaos_options.upstream_host = host;
      chaos_options.upstream_port = server_port;
      chaos_options.seed = seed;
      service::ChaosProxy proxy(chaos_options);
      proxy.start();

      Outcomes outcomes;
      std::atomic<std::int64_t> budget{static_cast<std::int64_t>(requests_per_seed)};
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (std::uint64_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t, seed] {
          service::ClientOptions through_proxy;
          through_proxy.host = "127.0.0.1";
          through_proxy.port = proxy.port();
          // Tight enough that trickled or torn responses fail over to a
          // retry instead of eating the whole deadline.
          through_proxy.io_timeout_ms = 3'000;
          through_proxy.connect_deadline_ms = 5'000;
          through_proxy.jitter_seed = util::derive_seed(seed, 1'000 + t);
          through_proxy.retry.max_attempts = 4;
          through_proxy.retry.overall_deadline_ms = deadline_ms;
          // The breaker would fail-fast late requests after a bad streak —
          // correct for production, but here it would mask the interesting
          // outcomes, so it is disabled.
          through_proxy.breaker.failure_threshold = 0;

          std::unique_ptr<service::Client> client;
          std::int64_t ticket;
          while ((ticket = budget.fetch_sub(1, std::memory_order_relaxed)) > 0) {
            const std::size_t index = requests_per_seed - static_cast<std::size_t>(ticket);
            const service::Request& request = *mix[index % 4];
            const Clock::time_point started = Clock::now();
            try {
              if (!client) client = std::make_unique<service::Client>(through_proxy);
              const service::Response response = client->call_with_retry(request);
              if (response.status == service::Status::Ok)
                outcomes.ok.fetch_add(1, std::memory_order_relaxed);
              else if (response.status == service::Status::Busy)
                outcomes.busy.fetch_add(1, std::memory_order_relaxed);
              else
                outcomes.server_error.fetch_add(1, std::memory_order_relaxed);
            } catch (const util::Error&) {
              // Chaos tore the transport out from under the call: a definite
              // client-side failure, which satisfies the invariant.
              outcomes.transport_error.fetch_add(1, std::memory_order_relaxed);
              client.reset();  // next request starts from a fresh connection
            }
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() - started).count();
            outcomes.record_ms(ms);
            if (ms > hang_bound_ms) outcomes.hangs.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
      proxy.stop();
      proxy.wait();

      const service::ChaosStats& stats = proxy.stats();
      chaos_connections += stats.connections.load();
      chaos_resets += stats.resets.load();
      chaos_cuts += stats.cuts.load();
      chaos_delays += stats.delays.load();
      chaos_duplicates += stats.duplicates.load();
      chaos_trickles += stats.trickles.load();
      chaos_partials += stats.partials.load();
      chaos_bytes += stats.bytes_forwarded.load();

      RoundReport report;
      report.seed = seed;
      report.ok = outcomes.ok.load();
      report.busy = outcomes.busy.load();
      report.server_error = outcomes.server_error.load();
      report.transport_error = outcomes.transport_error.load();
      report.hangs = outcomes.hangs.load();
      report.max_request_ms = outcomes.max_request_ms.load();

      total.ok += report.ok;
      total.busy += report.busy;
      total.server_error += report.server_error;
      total.transport_error += report.transport_error;
      total.hangs += report.hangs;
      total.record_ms(report.max_request_ms);

      // Liveness probe on a clean connection: the server must still answer.
      try {
        service::Client probe(direct);
        const service::Response response = probe.call(status_request);
        report.alive = response.status == service::Status::Ok;
      } catch (const std::exception& e) {
        report.alive = false;
        std::fprintf(stderr, "pmacx_chaos: liveness probe after seed %llu failed: %s\n",
                     static_cast<unsigned long long>(seed), e.what());
      }
      if (!report.alive) ++liveness_failures;

      if (spawned.pid > 0) {
        report.rss_mb = rss_mb(spawned.pid);
        max_rss_seen = std::max(max_rss_seen, report.rss_mb);
        if (report.rss_mb > static_cast<double>(max_rss_mb)) rss_exceeded = true;
      }

      std::printf("pmacx_chaos: seed %llu: %llu ok, %llu busy, %llu server-err, "
                  "%llu transport-err, %llu hangs, max %.0f ms%s%s\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(report.ok),
                  static_cast<unsigned long long>(report.busy),
                  static_cast<unsigned long long>(report.server_error),
                  static_cast<unsigned long long>(report.transport_error),
                  static_cast<unsigned long long>(report.hangs), report.max_request_ms,
                  report.alive ? "" : "  SERVER DEAD",
                  spawned.pid > 0 ? ("  rss " + std::to_string(report.rss_mb) + " MiB").c_str()
                                  : "");
      rounds.push_back(report);
      ++rounds_run;
      if (!report.alive) break;  // no point chaosing a corpse
    }

    // Teardown (and the final crash check) in --server mode.
    bool abnormal_exit = false;
    if (spawned.pid > 0) {
      if (liveness_failures == 0) {
        try {
          service::Client control(direct);
          service::Request shutdown;
          shutdown.type = service::MsgType::Shutdown;
          control.call(shutdown);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "pmacx_chaos: shutdown request failed: %s\n", e.what());
          ::kill(spawned.pid, SIGTERM);
        }
      } else {
        ::kill(spawned.pid, SIGTERM);
      }
      int status = 0;
      ::waitpid(spawned.pid, &status, 0);
      spawned.pid = -1;  // reaped: nothing left for the stopper
      abnormal_exit = liveness_failures == 0 &&
                      (!WIFEXITED(status) || WEXITSTATUS(status) != 0);
      if (abnormal_exit)
        std::fprintf(stderr, "pmacx_chaos: server exited abnormally (status %d)\n", status);
    }

    const std::uint64_t requests_total =
        total.ok.load() + total.busy.load() + total.server_error.load() +
        total.transport_error.load();
    const bool passed = total.hangs.load() == 0 && liveness_failures == 0 &&
                        !rss_exceeded && !abnormal_exit &&
                        requests_total == rounds_run * requests_per_seed;

    std::printf("pmacx_chaos: %s — %llu rounds, %llu requests "
                "(%llu ok, %llu busy, %llu server-err, %llu transport-err), "
                "%llu hangs, %llu liveness failures, max rss %.1f MiB\n",
                passed ? "PASS" : "FAIL",
                static_cast<unsigned long long>(rounds_run),
                static_cast<unsigned long long>(requests_total),
                static_cast<unsigned long long>(total.ok.load()),
                static_cast<unsigned long long>(total.busy.load()),
                static_cast<unsigned long long>(total.server_error.load()),
                static_cast<unsigned long long>(total.transport_error.load()),
                static_cast<unsigned long long>(total.hangs.load()),
                static_cast<unsigned long long>(liveness_failures), max_rss_seen);
    std::printf("pmacx_chaos: injected faults: %llu conns, %llu resets, %llu cuts, "
                "%llu delays, %llu dups, %llu trickles, %llu partials, %llu bytes\n",
                static_cast<unsigned long long>(chaos_connections),
                static_cast<unsigned long long>(chaos_resets),
                static_cast<unsigned long long>(chaos_cuts),
                static_cast<unsigned long long>(chaos_delays),
                static_cast<unsigned long long>(chaos_duplicates),
                static_cast<unsigned long long>(chaos_trickles),
                static_cast<unsigned long long>(chaos_partials),
                static_cast<unsigned long long>(chaos_bytes));

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      PMACX_CHECK(out.good(), "cannot write " + json_path);
      out << "{\n"
          << "  \"passed\": " << (passed ? "true" : "false") << ",\n"
          << "  \"rounds\": " << rounds_run << ",\n"
          << "  \"requests\": " << requests_total << ",\n"
          << "  \"outcomes\": {\"ok\": " << total.ok.load()
          << ", \"busy\": " << total.busy.load()
          << ", \"server_error\": " << total.server_error.load()
          << ", \"transport_error\": " << total.transport_error.load() << "},\n"
          << "  \"violations\": {\"hangs\": " << total.hangs.load()
          << ", \"liveness_failures\": " << liveness_failures
          << ", \"rss_exceeded\": " << (rss_exceeded ? "true" : "false")
          << ", \"abnormal_exit\": " << (abnormal_exit ? "true" : "false") << "},\n"
          << "  \"max_request_ms\": " << total.max_request_ms.load() << ",\n"
          << "  \"max_rss_mb\": " << max_rss_seen << ",\n"
          << "  \"faults\": {\"connections\": " << chaos_connections
          << ", \"resets\": " << chaos_resets << ", \"cuts\": " << chaos_cuts
          << ", \"delays\": " << chaos_delays << ", \"duplicates\": " << chaos_duplicates
          << ", \"trickles\": " << chaos_trickles << ", \"partials\": " << chaos_partials
          << ", \"bytes_forwarded\": " << chaos_bytes << "},\n"
          << "  \"per_seed\": [\n";
      for (std::size_t i = 0; i < rounds.size(); ++i) {
        const RoundReport& r = rounds[i];
        out << "    {\"seed\": " << r.seed << ", \"ok\": " << r.ok
            << ", \"busy\": " << r.busy << ", \"server_error\": " << r.server_error
            << ", \"transport_error\": " << r.transport_error << ", \"hangs\": " << r.hangs
            << ", \"max_request_ms\": " << r.max_request_ms
            << ", \"rss_mb\": " << r.rss_mb << ", \"alive\": "
            << (r.alive ? "true" : "false") << "}" << (i + 1 < rounds.size() ? "," : "")
            << "\n";
      }
      out << "  ]\n}\n";
    }

    return passed ? 0 : 1;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "pmacx_chaos: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmacx_chaos: internal error: %s\n", e.what());
    return 1;
  }
}
