#include "service/router.hpp"

#include <sstream>
#include <thread>

#include "core/checkpoint.hpp"
#include "ingest/ingest.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pmacx::service {
namespace {

using Clock = std::chrono::steady_clock;

std::string shard_metric(std::uint32_t id, const char* suffix) {
  return "service.router.shard." + std::to_string(id) + suffix;
}

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.topology, options_.vnodes_per_shard),
      started_at_(Clock::now()),
      listener_(options_.bind, options_.port, "service.router", options_.failover_deadline_ms) {
  for (const ShardEndpoint& shard : ring_.shards())
    PMACX_CHECK(shard.port != 0, "shard " + std::to_string(shard.id) +
                                     " has no resolved port; the router needs real endpoints");

  auto& registry = util::metrics::Registry::global();
  registry.gauge("service.router.shards").set(static_cast<double>(ring_.shard_count()));
  registry.gauge("service.router.replication").set(static_cast<double>(ring_.replication()));
}

void Router::start() {
  listener_.start([this](int fd) { serve_connection(fd); });
}

void Router::serve_connection(int fd) {
  ShardClients shards;
  shards.shards.resize(ring_.shard_count());
  FrameReader reader(fd, listener_.stop_flag(), options_.idle_timeout_ms,
                     options_.read_timeout_ms, "service.router", "service.router.parse_error");
  while (const std::optional<Request> request = reader.next()) {
    const bool sent = reader.reply(request->type, route(*request, shards));
    if (request->type == MsgType::Shutdown) {
      // Reply *before* stopping: the shard fan-out can take a while (dead
      // shards, fault injection), and once stopping the listener shuts
      // this connection down — the requester must already have its
      // "draining" answer by then.
      broadcast_shutdown(shards);
      break;
    }
    if (!sent) break;
  }
}

Response Router::route(const Request& request, ShardClients& shards) {
  auto& registry = util::metrics::Registry::global();
  registry.counter("service.router.requests." + msg_type_name(request.type)).add();
  routed_.fetch_add(1, std::memory_order_relaxed);
  try {
    switch (request.type) {
      case MsgType::Status:
        return aggregate_status(shards);
      case MsgType::Shutdown: {
        // The fan-out happens in serve_connection after this reply is on
        // the wire (see there for why); acknowledging is all route() does.
        Response response;
        response.body = "draining";
        return response;
      }
      case MsgType::UploadTrace:
        return route_upload(request, shards);
      default:
        return route_data_plane(request, shards);
    }
  } catch (const util::Error& e) {
    Response response;
    response.status = Status::Error;
    response.body = e.what();
    registry.counter("service.router.error").add();
    return response;
  }
}

std::string Router::routing_digest(const Request& request) {
  // "@collection" specs resolve on the *shards'* filesystems, so their
  // contents cannot be hashed here.  Route them by the collection's ring
  // key instead — the same key route_upload used — so the request lands on
  // the replicas that hold the ingested files.
  for (const std::string& path : request.spec.trace_paths) {
    std::string collection;
    if (ingest::is_collection_ref(path, &collection)) return "upload:" + collection;
  }
  // Cache key: everything digest_preimage folds in, rendered textually.
  // (The digest itself hashes file *contents*; the key may assume paths are
  // stable because the shard stores assume the same.)
  std::string key;
  for (const std::string& path : request.spec.trace_paths) key += path + "\n";
  const FitSpec& spec = request.spec;
  key += spec.forms + "|" + spec.missing + "|" + spec.criterion + "|" +
         util::format("%.17g|%.17g|%d|%d", spec.tie_tolerance, spec.influence_threshold,
                      spec.reject_out_of_domain ? 1 : 0, spec.round_counts ? 1 : 0);
  {
    std::scoped_lock lock(digest_mutex_);
    auto it = digest_cache_.find(key);
    if (it != digest_cache_.end()) return it->second;
  }
  const std::string digest =
      core::models_digest_for_files(request.spec.trace_paths, request.spec.to_options());
  std::scoped_lock lock(digest_mutex_);
  digest_cache_.emplace(key, digest);
  return digest;
}

Response Router::call_shard(std::size_t index, const Request& request, ShardClients& shards) {
  ShardState& state = shards.shards[index];
  const ShardEndpoint& endpoint = ring_.shards()[index];
  if (!state.client) {
    ClientOptions client_options;
    client_options.host = endpoint.host;
    client_options.port = endpoint.port;
    client_options.io_timeout_ms = options_.shard_io_timeout_ms;
    client_options.connect_attempts = 2;
    client_options.connect_backoff_ms = 25;
    client_options.connect_deadline_ms = options_.shard_connect_deadline_ms;
    client_options.jitter_seed = util::derive_seed(0x726f75746572ULL, endpoint.id);
    state.client = std::make_unique<Client>(client_options);  // throws when unreachable
  }

  const Clock::time_point started = Clock::now();
  MsgType response_type = request.type;
  Response response;
  try {
    response = state.client->call(request, &response_type);
  } catch (...) {
    // Transport or framing failure: this connection is unusable, and a
    // retried hop must start from a clean stream.
    state.client.reset();
    throw;
  }
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - started);
  util::metrics::Registry::global()
      .histogram(shard_metric(endpoint.id, ".latency"))
      .record(static_cast<std::uint64_t>(elapsed.count()));

  if (response_type != request.type && request.type != MsgType::Status) {
    // A Status-typed frame answering a data-plane request is either the
    // shard reporting it could not decode us, or a stale frame from a
    // desynchronized stream (duplicated/torn chunks under network faults).
    // Both mean this connection's framing can no longer be trusted.
    state.client.reset();
    throw util::Error("shard " + std::to_string(endpoint.id) +
                      " answered with mismatched frame type (stream desynchronized): " +
                      response.body);
  }
  return response;
}

Response Router::route_data_plane(const Request& request, ShardClients& shards) {
  auto& registry = util::metrics::Registry::global();
  const std::string digest = routing_digest(request);
  const std::vector<std::uint32_t> replicas = ring_.replicas_for(digest);

  // Map shard ids to positions in the sorted shard vector once.
  std::vector<std::size_t> indices;
  indices.reserve(replicas.size());
  for (const std::uint32_t id : replicas)
    for (std::size_t i = 0; i < ring_.shards().size(); ++i)
      if (ring_.shards()[i].id == id) {
        indices.push_back(i);
        break;
      }

  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.failover_deadline_ms);
  std::uint64_t backoff_ms = options_.sweep_backoff_ms;
  std::size_t failed_hops = 0;
  std::string last_error = "no replica attempted";

  for (;;) {
    for (std::size_t pos = 0; pos < indices.size(); ++pos) {
      const std::size_t index = indices[pos];
      ShardState& state = shards.shards[index];
      if (options_.shard_breaker_failures > 0 && Clock::now() < state.open_until) {
        registry.counter("service.router.shard_down").add();
        continue;
      }
      try {
        Response response = call_shard(index, request, shards);
        state.consecutive_failures = 0;
        registry.counter("service.router.routed").add();
        if (pos > 0 || failed_hops > 0) {
          // The request needed a non-primary replica (or a re-sweep): this
          // is the counter the cluster chaos CI job requires to be positive
          // — proof failover actually happened under the kill schedule.
          registry.counter("service.router.failover").add();
        }
        return response;
      } catch (const util::Error& e) {
        ++failed_hops;
        last_error = e.what();
        registry.counter("service.router.failover_attempts").add();
        ++state.consecutive_failures;
        if (options_.shard_breaker_failures > 0 &&
            state.consecutive_failures >= options_.shard_breaker_failures)
          state.open_until =
              Clock::now() + std::chrono::milliseconds(options_.shard_breaker_cooldown_ms);
      }
    }
    // A full sweep of the replica set failed: back off, then sweep again
    // while the budget lasts (a killed replica is typically respawned by
    // the supervisor well inside the failover deadline).
    if (Clock::now() + std::chrono::milliseconds(backoff_ms) >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, options_.sweep_backoff_ms * 8);
  }

  registry.counter("service.router.exhausted").add();
  Response response;
  response.status = Status::Error;
  response.body = "no replica of digest " + digest + " answered within " +
                  std::to_string(options_.failover_deadline_ms) + " ms (" +
                  std::to_string(failed_hops) + " failed hops): " + last_error;
  return response;
}

Response Router::route_upload(const Request& request, ShardClients& shards) {
  auto& registry = util::metrics::Registry::global();
  // Same ring position for every op of every upload into this collection —
  // and for later "@collection" fit specs (see routing_digest) — so the
  // shards answering those requests are exactly the ones receiving files.
  const std::string key = "upload:" + request.upload.collection;
  const std::vector<std::uint32_t> replicas = ring_.replicas_for(key);

  std::vector<std::size_t> indices;
  indices.reserve(replicas.size());
  for (const std::uint32_t id : replicas)
    for (std::size_t i = 0; i < ring_.shards().size(); ++i)
      if (ring_.shards()[i].id == id) {
        indices.push_back(i);
        break;
      }

  // Fan out to every replica: unlike the data plane (any one replica can
  // answer), ingestion must *land* on each shard that may later serve the
  // collection.  The primary's answer is authoritative (its STATUS drives
  // the client's resume loop); a failed secondary is metered and skipped —
  // the op is idempotent, so the client's retry sweep repairs it.
  Response primary_response;
  bool primary_ok = false;
  std::string primary_error = "no replica attempted";
  for (std::size_t pos = 0; pos < indices.size(); ++pos) {
    try {
      Response response = call_shard(indices[pos], request, shards);
      if (pos == 0) {
        primary_response = std::move(response);
        primary_ok = true;
      }
    } catch (const util::Error& e) {
      if (pos == 0)
        primary_error = e.what();
      else
        registry.counter("service.router.upload_replica_failures").add();
    }
  }
  if (!primary_ok) {
    registry.counter("service.router.error").add();
    primary_response.status = Status::Error;
    primary_response.body =
        "primary replica for collection '" + request.upload.collection +
        "' failed: " + primary_error;
  }
  registry.counter("service.router.routed").add();
  return primary_response;
}

Response Router::aggregate_status(ShardClients& shards) {
  const auto uptime =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - started_at_);
  std::ostringstream out;
  out << "router.version "
      << util::metrics::RunManifest::for_tool("pmacx_cluster").version << "\n"
      << "router.uptime_ms " << uptime.count() << "\n"
      << "router.ring_epoch " << std::hex << ring_.epoch() << std::dec << "\n"
      << "router.shards " << ring_.shard_count() << "\n"
      << "router.replication " << ring_.replication() << "\n"
      << "router.requests " << routed_.load(std::memory_order_relaxed) << "\n";

  Request probe;
  probe.type = MsgType::Status;
  for (std::size_t index = 0; index < ring_.shard_count(); ++index) {
    const std::uint32_t id = ring_.shards()[index].id;
    const std::string prefix = "shard." + std::to_string(id) + ".";
    try {
      const Response response = call_shard(index, probe, shards);
      const bool healthy = response.status == Status::Ok;
      out << prefix << "healthy " << (healthy ? 1 : 0) << "\n";
      if (healthy) {
        shards.shards[index].consecutive_failures = 0;
        for (const std::string& line : util::split(response.body, '\n'))
          if (!util::trim(line).empty()) out << prefix << line << "\n";
      } else {
        out << prefix << "error " << response.body << "\n";
      }
    } catch (const util::Error& e) {
      util::metrics::Registry::global().counter("service.router.shard_down").add();
      out << prefix << "healthy 0\n" << prefix << "error " << e.what() << "\n";
    }
  }

  Response response;
  response.body = out.str();
  return response;
}

void Router::broadcast_shutdown(ShardClients& shards) {
  // Stop accepting *before* telling shards to drain, so a supervisor
  // polling stopping() never respawns a shard we just shut down.
  stop();
  Request shutdown;
  shutdown.type = MsgType::Shutdown;
  for (std::size_t index = 0; index < ring_.shard_count(); ++index) {
    try {
      call_shard(index, shutdown, shards);
    } catch (const util::Error&) {
      // A shard that is already gone needs no shutdown; the supervisor
      // reaps whatever is left.
    }
  }
}

}  // namespace pmacx::service
