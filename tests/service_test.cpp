// pmacx::service tests: the byte-bounded single-flight LRU, the
// content-addressed model store, and the in-process server end-to-end —
// including the golden equivalence contract (server responses byte-identical
// to direct library calls), BUSY load shedding, concurrent clients, the
// connection defense of both the server and the router, and the chaos
// proxy (run under TSan by the CI matrix).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/extrapolator.hpp"
#include "machine/profile.hpp"
#include "machine/targets.hpp"
#include "psins/predictor.hpp"
#include "service/chaos.hpp"
#include "service/client.hpp"
#include "service/model_store.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "synth/registry.hpp"
#include "trace/binary_io.hpp"
#include "trace/task_trace.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace pmacx {
namespace {

using trace::BlockElement;
using trace::TaskTrace;

/// A small trace with known scaling laws, named after a real synthetic app
/// so the PREDICT path can rebuild its communication timelines.
TaskTrace law_trace(double p) {
  TaskTrace task;
  task.app = "specfem3d";
  task.core_count = static_cast<std::uint32_t>(p);
  task.target_system = "bluewaters-p1";

  trace::BasicBlockRecord block;
  block.id = 1;
  block.location = {"solver.c", 10, "solve"};
  block.set(BlockElement::VisitCount, 42.0);
  block.set(BlockElement::MemLoads, 1e10 / p);
  block.set(BlockElement::MemStores, 4e9 / p);
  block.set(BlockElement::BytesPerRef, 8.0);
  block.set(BlockElement::HitRateL1, 0.4);
  block.set(BlockElement::HitRateL2, 0.5 + 0.00004 * p);
  block.set(BlockElement::HitRateL3, 0.95);
  block.set(BlockElement::WorkingSetBytes, 4.6e9 / p);
  block.set(BlockElement::Ilp, 3.5);
  block.set(BlockElement::DepChainLength, 6.0);
  task.blocks.push_back(block);

  trace::BasicBlockRecord reduction;
  reduction.id = 2;
  reduction.location = {"reduce.c", 2, "reduce"};
  reduction.set(BlockElement::VisitCount, 10.0);
  reduction.set(BlockElement::MemLoads, 4096.0 * (1.0 + std::log2(p)));
  reduction.set(BlockElement::BytesPerRef, 8.0);
  reduction.set(BlockElement::HitRateL1, 0.99);
  reduction.set(BlockElement::HitRateL2, 0.99);
  reduction.set(BlockElement::HitRateL3, 0.99);
  reduction.set(BlockElement::Ilp, 2.0);
  reduction.set(BlockElement::DepChainLength, 3.0);
  task.blocks.push_back(reduction);
  task.sort_blocks();
  return task;
}

/// Writes the law series to disk once per process; the store addresses
/// content, so reusing the files across tests is what a server sees anyway.
std::vector<std::string> law_trace_files() {
  static std::vector<std::string> paths = [] {
    std::vector<std::string> created;
    for (double p : {16.0, 32.0, 64.0}) {
      const std::string path =
          testing::TempDir() + "service_law_" + std::to_string(static_cast<int>(p)) +
          ".trace";
      law_trace(p).save(path);
      created.push_back(path);
    }
    return created;
  }();
  return paths;
}

service::Request extrapolate_request(std::uint32_t target_cores) {
  service::Request request;
  request.type = service::MsgType::Extrapolate;
  request.spec.trace_paths = law_trace_files();
  request.target_cores = target_cores;
  return request;
}

service::Request predict_request(std::uint32_t target_cores) {
  service::Request request = extrapolate_request(target_cores);
  request.type = service::MsgType::Predict;
  request.app = "specfem3d";
  request.work_scale = 1.0;
  request.machine_target = "bluewaters-p1";
  return request;
}

// ---------------------------------------------------------------------------
// LruCache

TEST(LruCacheTest, EvictsColdEntriesToStayUnderBudget) {
  service::LruCache<int> cache(3 * sizeof(int), [](const int&) { return sizeof(int); });
  int loads = 0;
  auto loader = [&loads]() {
    ++loads;
    return std::make_shared<const int>(loads);
  };
  cache.get_or_load("a", loader);
  cache.get_or_load("b", loader);
  cache.get_or_load("c", loader);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * sizeof(int));

  cache.get_or_load("a", loader);  // refresh "a" so "b" is now coldest
  cache.get_or_load("d", loader);  // over budget: evicts "b"
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(loads, 4);

  cache.get_or_load("a", loader);  // survived the eviction: hit
  cache.get_or_load("c", loader);  // hit
  EXPECT_EQ(loads, 4);

  cache.get_or_load("b", loader);  // was evicted: reload, which evicts "d"
  EXPECT_EQ(loads, 5);
  cache.get_or_load("d", loader);
  EXPECT_EQ(loads, 6);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * sizeof(int));
}

TEST(LruCacheTest, SingleFlightRunsLoaderOnceUnderContention) {
  service::LruCache<std::string> cache(1 << 20,
                                       [](const std::string& s) { return s.size(); });
  std::atomic<int> loads{0};
  auto loader = [&loads]() {
    loads.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::make_shared<const std::string>("value");
  };

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto value = cache.get_or_load("shared", loader);
      if (value && *value == "value") ok.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(loads.load(), 1) << "concurrent loads must coalesce";
  EXPECT_EQ(ok.load(), kThreads);
}

TEST(LruCacheTest, FailedLoadPropagatesAndLeavesNoEntry) {
  service::LruCache<int> cache(1 << 20, [](const int&) { return sizeof(int); });
  EXPECT_THROW(cache.get_or_load(
                   "bad", []() -> std::shared_ptr<const int> {
                     throw util::Error("loader failed");
                   }),
               util::Error);
  EXPECT_EQ(cache.entries(), 0u);
  // The key is retryable: a later good loader succeeds.
  auto value = cache.get_or_load("bad", [] { return std::make_shared<const int>(7); });
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 7);
}

// ---------------------------------------------------------------------------
// ModelStore

TEST(ModelStoreTest, DigestIsContentAddressed) {
  service::ModelStore store;
  const auto paths = law_trace_files();
  core::ExtrapolationOptions options;

  const std::string digest = store.digest(paths, options);
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(digest, store.digest(paths, options)) << "digest must be deterministic";

  core::ExtrapolationOptions loo = options;
  loo.fit.criterion = stats::SelectionCriterion::LooCv;
  EXPECT_NE(digest, store.digest(paths, loo)) << "options are part of the address";

  // Same bytes under a different file name → same digest (content, not path).
  const std::string copy = testing::TempDir() + "service_law_copy.trace";
  {
    std::ifstream in(paths[0], std::ios::binary);
    std::ofstream out(copy, std::ios::binary);
    out << in.rdbuf();
  }
  auto renamed = paths;
  renamed[0] = copy;
  EXPECT_EQ(digest, store.digest(renamed, options));

  // Different content → different digest.
  const std::string other = testing::TempDir() + "service_law_other.trace";
  law_trace(17).save(other);
  auto changed = paths;
  changed[0] = other;
  EXPECT_NE(digest, store.digest(changed, options));
}

TEST(ModelStoreTest, ExtrapolateMatchesDirectCallByteForByte) {
  service::ModelStore store;
  const auto paths = law_trace_files();
  core::ExtrapolationOptions options;

  const auto models = store.models_for(paths, options);
  ASSERT_NE(models.models, nullptr);
  EXPECT_GT(models.models->memory_bytes(), 0u);
  const core::ExtrapolationResult cached = core::extrapolate_from_models(*models.models, 256);

  std::vector<TaskTrace> inputs;
  for (const auto& path : paths) inputs.push_back(TaskTrace::load(path));
  const core::ExtrapolationResult direct = core::extrapolate_task(inputs, 256, options);

  EXPECT_EQ(trace::to_binary(cached.trace), trace::to_binary(direct.trace));
}

TEST(ModelStoreTest, SignatureCacheKeysWorkScaleAtFullPrecision) {
  // 1/3 and 0.3333334 agree to six decimals.  make_app scales message sizes
  // and compute units by the scale, so each must get its own signature.
  service::ModelStore store;
  const auto models = store.models_for(law_trace_files(), core::ExtrapolationOptions{});
  const double scales[] = {1.0 / 3.0, 0.3333334};
  std::vector<trace::AppSignature> direct;
  for (const double scale : scales)
    direct.push_back(trace::AppSignature::for_task(
        core::extrapolate_from_models(*models.models, 128).trace,
        synth::comm_traces(*synth::make_app("specfem3d", scale), 128)));
  ASSERT_NE(direct[0].comm, direct[1].comm);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    SCOPED_TRACE("work_scale " + std::to_string(i));
    const auto cached = store.signature_for(models, 128, "specfem3d", scales[i]);
    EXPECT_EQ(cached->tasks, direct[i].tasks);
    EXPECT_EQ(cached->comm, direct[i].comm);
  }
}

TEST(ModelStoreTest, RepeatedQueriesHitTheCache) {
  service::ModelStore store;
  const auto paths = law_trace_files();
  core::ExtrapolationOptions options;

  const auto first = store.models_for(paths, options);
  const service::StoreStats before = store.stats();
  for (int i = 0; i < 5; ++i) {
    const auto again = store.models_for(paths, options);
    EXPECT_EQ(again.models.get(), first.models.get()) << "must be the same cached set";
  }
  const service::StoreStats after = store.stats();
  // Each repeat hits the three trace slots (for the digest) and the model
  // slot — and never misses.
  EXPECT_GE(after.hits - before.hits, 5u * 4u);
  EXPECT_EQ(after.misses, before.misses);
}

// ---------------------------------------------------------------------------
// Server end-to-end

service::ServerOptions test_server_options() {
  service::ServerOptions options;
  options.port = 0;       // ephemeral
  options.threads = 2;
  options.request_timeout_ms = 120'000;  // generous: CI sanitizer builds are slow
  return options;
}

service::ClientOptions client_for(const service::Server& server) {
  service::ClientOptions options;
  options.port = server.port();
  options.io_timeout_ms = 120'000;
  return options;
}

TEST(ServiceServerTest, ExtrapolateResponseIsByteIdenticalToLibraryCall) {
  service::Server server(test_server_options());
  server.start();
  service::Client client(client_for(server));

  const service::Request request = extrapolate_request(256);
  const service::Response response = client.call(request);
  ASSERT_EQ(response.status, service::Status::Ok) << response.body;

  std::vector<TaskTrace> inputs;
  for (const auto& path : request.spec.trace_paths) inputs.push_back(TaskTrace::load(path));
  const core::ExtrapolationResult direct =
      core::extrapolate_task(inputs, 256, request.spec.to_options());
  EXPECT_EQ(response.body, trace::to_binary(direct.trace));

  // The body is a valid binary trace a client can load and validate.
  const TaskTrace round_trip = trace::from_binary(response.body);
  round_trip.validate();
  EXPECT_EQ(round_trip.core_count, 256u);
  EXPECT_TRUE(round_trip.extrapolated);
}

TEST(ServiceServerTest, PredictResponseIsByteIdenticalToLibraryCall) {
  service::Server server(test_server_options());
  server.start();
  service::Client client(client_for(server));

  const service::Request request = predict_request(128);
  const service::Response response = client.call(request);
  ASSERT_EQ(response.status, service::Status::Ok) << response.body;

  // Replicate pmacx_predict's pipeline directly.
  std::vector<TaskTrace> inputs;
  for (const auto& path : request.spec.trace_paths) inputs.push_back(TaskTrace::load(path));
  core::ExtrapolationResult direct =
      core::extrapolate_task(inputs, 128, request.spec.to_options());
  const auto app = synth::make_app("specfem3d", 1.0);
  trace::AppSignature signature;
  signature.app = direct.trace.app;
  signature.core_count = 128;
  signature.target_system = direct.trace.target_system;
  signature.demanding_rank = direct.trace.rank;
  signature.tasks.push_back(direct.trace);
  for (std::uint32_t rank = 0; rank < 128; ++rank)
    signature.comm.push_back(app->comm_trace(128, rank));
  const machine::MachineProfile profile =
      machine::build_profile(machine::target_by_name("bluewaters-p1"));
  const psins::PredictionResult prediction = psins::predict(signature, profile);

  EXPECT_EQ(response.body, psins::render_prediction(signature.demanding_task(),
                                                    "bluewaters-p1", prediction));

  // Repeats are served from the signature cache — and must not change.
  const service::Response again = client.call(request);
  ASSERT_EQ(again.status, service::Status::Ok);
  EXPECT_EQ(again.body, response.body);
}

TEST(ServiceServerTest, PredictIntervalResponseIsByteIdenticalToLibraryCall) {
  service::Server server(test_server_options());
  server.start();
  service::Client client(client_for(server));

  service::Request request = extrapolate_request(256);
  request.type = service::MsgType::PredictInterval;
  request.interval_coverage = 0.9;
  const service::Response response = client.call(request);
  ASSERT_EQ(response.status, service::Status::Ok) << response.body;

  // Replicate the interval pipeline directly: cached fits, then the
  // interval-mode evaluation at the target.
  std::vector<TaskTrace> inputs;
  for (const auto& path : request.spec.trace_paths) inputs.push_back(TaskTrace::load(path));
  const core::TaskModelSet models =
      core::fit_task_models(inputs, request.spec.to_options());
  const core::ExtrapolationResult direct =
      core::extrapolate_from_models(models, 256, 0.9);
  ASSERT_TRUE(direct.has_interval);
  service::IntervalResult expected;
  expected.lo = trace::to_binary(direct.trace_lo);
  expected.median = trace::to_binary(direct.trace_median);
  expected.hi = trace::to_binary(direct.trace_hi);
  expected.report_csv = direct.report.to_csv();
  EXPECT_EQ(response.body, service::encode_interval_result(expected));

  // The body decodes into three loadable, validated traces with ordered
  // quantiles on a known element.
  const service::IntervalResult decoded =
      service::decode_interval_result(response.body);
  const TaskTrace lo = trace::from_binary(decoded.lo);
  const TaskTrace median = trace::from_binary(decoded.median);
  const TaskTrace hi = trace::from_binary(decoded.hi);
  lo.validate();
  median.validate();
  hi.validate();
  EXPECT_EQ(median.core_count, 256u);
  EXPECT_TRUE(median.extrapolated);
  ASSERT_EQ(lo.blocks.size(), hi.blocks.size());
  for (std::size_t b = 0; b < lo.blocks.size(); ++b) {
    EXPECT_LE(lo.blocks[b].get(BlockElement::MemLoads),
              hi.blocks[b].get(BlockElement::MemLoads) + 1e-9);
    EXPECT_LE(lo.blocks[b].get(BlockElement::HitRateL2),
              hi.blocks[b].get(BlockElement::HitRateL2) + 1e-12);
  }

  // Repeats come from the interval cache and must not change a byte; the
  // point path stays untouched by interval queries.
  const service::Response again = client.call(request);
  ASSERT_EQ(again.status, service::Status::Ok);
  EXPECT_EQ(again.body, response.body);
  const service::Response point = client.call(extrapolate_request(256));
  ASSERT_EQ(point.status, service::Status::Ok) << point.body;
  const core::ExtrapolationResult point_direct =
      core::extrapolate_from_models(models, 256);
  EXPECT_EQ(point.body, trace::to_binary(point_direct.trace));
}

TEST(ServiceServerTest, ZeroInFlightLimitShedsWithBusy) {
  service::ServerOptions options = test_server_options();
  options.max_in_flight = 0;
  service::Server server(options);
  server.start();
  service::Client client(client_for(server));

  const service::Response shed = client.call(extrapolate_request(256));
  EXPECT_EQ(shed.status, service::Status::Busy) << shed.body;

  // Control plane still answers on a saturated server.
  service::Request status;
  status.type = service::MsgType::Status;
  const service::Response alive = client.call(status);
  EXPECT_EQ(alive.status, service::Status::Ok);
  EXPECT_NE(alive.body.find("in_flight"), std::string::npos);
}

TEST(ServiceServerTest, MalformedFrameGetsErrorResponseNotCrash) {
  service::Server server(test_server_options());
  server.start();

  // The Client API never produces a bad frame, so speak raw sockets: send a
  // frame whose payload got a bit flipped in transit.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  std::string damaged = service::encode_request(extrapolate_request(256));
  damaged[service::kHeaderSize + 2] ^= 0x40;
  ASSERT_EQ(::send(fd, damaged.data(), damaged.size(), 0),
            static_cast<ssize_t>(damaged.size()));

  // The server answers with an Error frame, then drops the connection.
  std::string reply(service::kHeaderSize, '\0');
  std::size_t got = 0;
  while (got < reply.size()) {
    const ssize_t n = ::recv(fd, reply.data() + got, reply.size() - got, 0);
    ASSERT_GT(n, 0) << "server must answer a corrupt frame, not just hang up";
    got += static_cast<std::size_t>(n);
  }
  const std::size_t payload_size = service::frame_payload_size(reply);
  std::string rest(payload_size + 4, '\0');
  got = 0;
  while (got < rest.size()) {
    const ssize_t n = ::recv(fd, rest.data() + got, rest.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  const service::Response response =
      service::decode_response(service::decode_frame(reply + rest));
  EXPECT_EQ(response.status, service::Status::Error);
  EXPECT_NE(response.body.find("crc"), std::string::npos) << response.body;

  // The server survives: a fresh, well-formed connection still works.
  service::Client fresh(client_for(server));
  EXPECT_EQ(fresh.call(extrapolate_request(256)).status, service::Status::Ok);
}

TEST(ServiceServerTest, ConcurrentClientsGetIdenticalAnswers) {
  service::Server server(test_server_options());
  server.start();

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 3;
  std::vector<std::string> bodies(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        service::Client client(client_for(server));
        for (int i = 0; i < kRequestsPerThread; ++i) {
          const service::Response response = client.call(extrapolate_request(512));
          if (response.status != service::Status::Ok) {
            failures.fetch_add(1);
            return;
          }
          if (bodies[t].empty()) {
            bodies[t] = response.body;
          } else if (bodies[t] != response.body) {
            failures.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(bodies[t], bodies[0]);

  const service::StoreStats stats = server.store().stats();
  EXPECT_GT(stats.hits, 0u) << "concurrent identical requests must share the cache";
}

TEST(ServiceServerTest, ShutdownRequestDrainsTheServer) {
  service::Server server(test_server_options());
  server.start();
  {
    service::Client client(client_for(server));
    ASSERT_EQ(client.call(extrapolate_request(256)).status, service::Status::Ok);
    service::Request shutdown;
    shutdown.type = service::MsgType::Shutdown;
    const service::Response response = client.call(shutdown);
    EXPECT_EQ(response.status, service::Status::Ok);
  }
  server.wait();  // must return — the test TIMEOUT guards against a hang
  EXPECT_GE(server.requests_handled(), 2u);
}

// ---------------------------------------------------------------------------
// Resilience: timeouts and the reaper, retries, the circuit breaker

std::uint64_t metric(const char* name) {
  return util::metrics::Registry::global().counter(name).value();
}

/// Raw loopback connect, for peers that must misbehave in ways the Client
/// API refuses to.  Returns -1 on failure (callers run in non-test threads).
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The endpoint a client talks to: a Server, or a Router in front of one
/// shard Server.  Both run the same connection defense and count it under
/// their own metric prefix.
enum class Frontend { Server, Router };

struct FrontendUnderTest {
  std::unique_ptr<service::Server> server;  ///< the endpoint, or the router's shard
  std::unique_ptr<service::Router> router;

  FrontendUnderTest(Frontend kind, std::uint64_t idle_timeout_ms,
                    std::uint64_t read_timeout_ms) {
    service::ServerOptions options = test_server_options();
    if (kind == Frontend::Server) {
      options.idle_timeout_ms = idle_timeout_ms;
      options.read_timeout_ms = read_timeout_ms;
    }
    server = std::make_unique<service::Server>(options);
    server->start();
    if (kind == Frontend::Server) return;

    service::RouterOptions router_options;
    router_options.topology.replication = 1;
    router_options.topology.shards.push_back({0, "127.0.0.1", server->port()});
    router_options.shard_io_timeout_ms = 120'000;
    router_options.failover_deadline_ms = 240'000;
    router_options.idle_timeout_ms = idle_timeout_ms;
    router_options.read_timeout_ms = read_timeout_ms;
    router = std::make_unique<service::Router>(router_options);
    router->start();
  }

  std::uint16_t port() const { return router ? router->port() : server->port(); }

  service::ClientOptions client_options() const {
    service::ClientOptions options = client_for(*server);
    options.port = port();
    return options;
  }

  /// The endpoint's `service[.router].conn.<event>` counter.
  std::uint64_t conn_metric(const std::string& event) const {
    const std::string prefix = router ? "service.router.conn." : "service.conn.";
    return metric((prefix + event).c_str());
  }
};

class ConnectionDefenseTest : public testing::TestWithParam<Frontend> {};

TEST_P(ConnectionDefenseTest, SlowLorisIsReapedWhileWellBehavedClientsAreServed) {
  // The slow-loris window under test is 400 ms.
  FrontendUnderTest frontend(GetParam(), /*idle_timeout_ms=*/30'000, /*read_timeout_ms=*/400);
  const std::uint64_t timeouts_before = frontend.conn_metric("timeout");

  // The attacker trickles a real frame at 1 byte per 100 ms — a full frame
  // would take tens of seconds, far past the read window.
  std::atomic<int> bytes_trickled{0};
  std::thread loris([&] {
    const int fd = connect_raw(frontend.port());
    if (fd < 0) return;
    const std::string frame = service::encode_request(extrapolate_request(256));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      if (::send(fd, frame.data() + i, 1, MSG_NOSIGNAL) != 1) break;
      bytes_trickled.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ::close(fd);
  });

  // Meanwhile an honest client on another connection is served normally.
  service::Client client(frontend.client_options());
  EXPECT_EQ(client.call(extrapolate_request(256)).status, service::Status::Ok);

  loris.join();
  // The endpoint cut the trickler off near the 400 ms mark — its sends
  // started failing long before the frame was done — and counted the timeout.
  EXPECT_LT(bytes_trickled.load(), 40) << "slow-loris peer was never cut off";
  EXPECT_GE(frontend.conn_metric("timeout"), timeouts_before + 1);
}

TEST_P(ConnectionDefenseTest, IdleConnectionIsReapedAndRetryReconnects) {
  FrontendUnderTest frontend(GetParam(), /*idle_timeout_ms=*/300, /*read_timeout_ms=*/10'000);
  const std::uint64_t timeouts_before = frontend.conn_metric("timeout");
  const std::uint64_t reaped_before = frontend.conn_metric("reaped");

  service::ClientOptions client_options = frontend.client_options();
  client_options.retry.initial_backoff_ms = 5;
  service::Client client(client_options);
  service::Request status;
  status.type = service::MsgType::Status;
  ASSERT_EQ(client.call(status).status, service::Status::Ok);

  // Sit silent past the idle window: the endpoint reaps this connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  EXPECT_GE(frontend.conn_metric("timeout"), timeouts_before + 1);

  // The resilient path hides the dead socket: it fails the first attempt,
  // reconnects, and completes.
  EXPECT_EQ(client.call_with_retry(status).status, service::Status::Ok);

  // The reaper joined the finished connection thread (poll-tick timing, so
  // give it a moment).
  for (int i = 0; i < 50 && frontend.conn_metric("reaped") < reaped_before + 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(frontend.conn_metric("reaped"), reaped_before + 1);
}

INSTANTIATE_TEST_SUITE_P(ServerAndRouter, ConnectionDefenseTest,
                         testing::Values(Frontend::Server, Frontend::Router),
                         [](const testing::TestParamInfo<Frontend>& info) {
                           return info.param == Frontend::Server ? "Server" : "Router";
                         });

TEST(ServiceResilienceTest, BusyIsRetriedThenReturnedNotThrown) {
  service::ServerOptions options = test_server_options();
  options.max_in_flight = 0;  // every data-plane request sheds
  service::Server server(options);
  server.start();

  service::ClientOptions client_options = client_for(server);
  client_options.retry.max_attempts = 3;
  client_options.retry.initial_backoff_ms = 5;
  client_options.breaker.failure_threshold = 0;
  service::Client client(client_options);

  const std::uint64_t busy_before = metric("service.client.busy_retries");
  const service::Response response = client.call_with_retry(extrapolate_request(256));
  // BUSY is a healthy answer, not a transport failure: after the retry
  // budget it is returned to the caller, and it never trips the breaker.
  EXPECT_EQ(response.status, service::Status::Busy);
  EXPECT_EQ(metric("service.client.busy_retries"), busy_before + 2);
  EXPECT_FALSE(client.circuit_open());
}

TEST(ServiceResilienceTest, CircuitBreakerOpensAndFailsFast) {
  service::ServerOptions options = test_server_options();
  service::Server server(options);
  server.start();

  service::ClientOptions client_options = client_for(server);
  client_options.io_timeout_ms = 2'000;
  client_options.connect_attempts = 1;
  client_options.connect_deadline_ms = 500;
  client_options.retry.max_attempts = 1;
  client_options.breaker.failure_threshold = 2;
  client_options.breaker.cooldown_ms = 60'000;
  service::Client client(client_options);

  service::Request status;
  status.type = service::MsgType::Status;
  ASSERT_EQ(client.call_with_retry(status).status, service::Status::Ok);
  EXPECT_FALSE(client.circuit_open());

  server.stop();
  server.wait();

  const std::uint64_t opened_before = metric("service.client.circuit_opened");
  EXPECT_THROW((void)client.call_with_retry(status), util::Error);  // dead socket
  EXPECT_FALSE(client.circuit_open()) << "one failure must not open a threshold-2 breaker";
  EXPECT_THROW((void)client.call_with_retry(status), util::Error);  // failed reconnect
  EXPECT_TRUE(client.circuit_open());
  EXPECT_EQ(metric("service.client.circuit_opened"), opened_before + 1);

  // Open circuit: the next call fails fast, without touching the network.
  const auto started = std::chrono::steady_clock::now();
  try {
    (void)client.call_with_retry(status);
    FAIL() << "open circuit must fail";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("circuit open"), std::string::npos) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 100)
      << "fail-fast took a full network timeout";
}

// ---------------------------------------------------------------------------
// ChaosProxy

TEST(ChaosProxyTest, ZeroProbabilityProxyIsByteTransparent) {
  service::Server server(test_server_options());
  server.start();

  service::ChaosOptions chaos;
  chaos.upstream_port = server.port();
  chaos.p_reset = chaos.p_cut = chaos.p_delay = chaos.p_duplicate = 0.0;
  chaos.p_trickle = chaos.p_partial = chaos.p_short_read = 0.0;
  service::ChaosProxy proxy(chaos);
  proxy.start();

  service::ClientOptions through_proxy = client_for(server);
  through_proxy.port = proxy.port();
  service::Client proxied(through_proxy);
  const service::Response via_proxy = proxied.call(extrapolate_request(256));
  ASSERT_EQ(via_proxy.status, service::Status::Ok) << via_proxy.body;

  service::Client direct(client_for(server));
  EXPECT_EQ(via_proxy.body, direct.call(extrapolate_request(256)).body);

  proxy.stop();
  proxy.wait();
  EXPECT_EQ(proxy.stats().connections.load(), 1u);
  EXPECT_GT(proxy.stats().bytes_forwarded.load(), 0u);
  EXPECT_EQ(proxy.stats().resets.load() + proxy.stats().cuts.load() +
                proxy.stats().duplicates.load(),
            0u);
}

TEST(ChaosProxyTest, AlwaysResetProxyFailsDefinitelyAndServerSurvives) {
  service::Server server(test_server_options());
  server.start();

  service::ChaosOptions chaos;
  chaos.upstream_port = server.port();
  chaos.p_reset = 1.0;  // every forwarded chunk is a hard RST
  service::ChaosProxy proxy(chaos);
  proxy.start();

  service::ClientOptions through_proxy = client_for(server);
  through_proxy.port = proxy.port();
  through_proxy.io_timeout_ms = 5'000;
  service::Client proxied(through_proxy);
  // The failure must be definite (a typed transport error), never a hang.
  EXPECT_THROW((void)proxied.call(extrapolate_request(256)), util::Error);
  proxy.stop();
  proxy.wait();
  EXPECT_GE(proxy.stats().resets.load(), 1u);

  // The server rode out the RST: a direct, well-formed request still works.
  service::Client direct(client_for(server));
  EXPECT_EQ(direct.call(extrapolate_request(256)).status, service::Status::Ok);
}

TEST(ChaosProxyTest, UpstreamResetEndsTheClientConnection) {
  // A fake upstream that resets the connection after the first request byte,
  // as a killed shard or one dropping a corrupt stream with bytes unread does.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  socklen_t addr_size = sizeof(addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_size), 0);
  std::thread upstream([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    char byte = 0;
    if (::recv(fd, &byte, 1, 0) == 1) {
      const linger abort_on_close{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close, sizeof(abort_on_close));
    }
    ::close(fd);
  });

  service::ChaosOptions chaos;
  chaos.upstream_port = ntohs(addr.sin_port);
  chaos.p_reset = chaos.p_cut = chaos.p_delay = chaos.p_duplicate = 0.0;
  chaos.p_trickle = chaos.p_partial = chaos.p_short_read = 0.0;
  service::ChaosProxy proxy(chaos);
  proxy.start();

  service::ClientOptions through_proxy;
  through_proxy.port = proxy.port();
  through_proxy.io_timeout_ms = 5'000;
  service::Client client(through_proxy);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.call(extrapolate_request(256)), util::Error);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1'000)
      << "the proxy left the client to wait out its own I/O timeout";
  upstream.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace pmacx
