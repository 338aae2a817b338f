#include "service/server.hpp"

#include <chrono>
#include <sstream>

#include "psins/predictor.hpp"
#include "trace/binary_io.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace pmacx::service {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      started_at_(Clock::now()),
      store_(options_.cache_bytes),
      listener_(options_.bind, options_.port, "service", options_.request_timeout_ms) {
  pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  util::metrics::Registry::global().gauge("service.threads").set(
      static_cast<double>(util::ThreadPool::resolve_threads(options_.threads)));
  util::metrics::Registry::global().gauge("service.max_in_flight").set(
      static_cast<double>(options_.max_in_flight));

  if (!options_.ingest_dir.empty()) {
    ingest::IngestService::Options ingest_options;
    ingest_options.root = options_.ingest_dir;
    ingest_options.stream_budget = options_.ingest_stream_budget;
    // Refit under the default fit spec: a request that asks for the default
    // policy on "@collection" resolves to the digest the background refit
    // already published; any other policy cold-fits through the cache path.
    ingest_options.fit = FitSpec{}.to_options();
    ingest_ = std::make_unique<ingest::IngestService>(
        std::move(ingest_options), pool_.get(),
        [this](const std::string& digest,
               std::shared_ptr<const core::TaskModelSet> models) {
          store_.insert_models(digest, std::move(models));
        });
  }
}

Server::~Server() {
  stop();
  wait();
}

void Server::start() {
  listener_.start([this](int fd) { serve_connection(fd); });
}

void Server::wait() {
  // Once the accept loop has stopped, queued (not yet started) handlers are
  // cancelled — their connection threads see CancelledError; running
  // handlers finish within the request deadline their waiters enforce.
  listener_.wait([this] {
    if (pool_) pool_->cancel_pending();
  });
  pool_.reset();  // drains any still-running handler
}

void Server::serve_connection(int fd) {
  FrameReader reader(fd, listener_.stop_flag(), options_.idle_timeout_ms,
                     options_.read_timeout_ms, "service", "service.requests.parse_error");
  while (const std::optional<Request> request = reader.next()) {
    if (!reader.reply(request->type, dispatch(*request))) break;
    if (request->type == MsgType::Shutdown) {
      stop();
      break;
    }
  }
}

Response Server::dispatch(const Request& request) {
  auto& registry = util::metrics::Registry::global();
  const std::string name = msg_type_name(request.type);
  registry.counter("service.requests." + name).add();
  handled_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point started = Clock::now();

  // Control-plane requests are cheap and must work on a saturated server
  // (STATUS is how you diagnose one, SHUTDOWN is how you stop one), so they
  // run inline, exempt from the in-flight cap.
  if (request.type == MsgType::Status || request.type == MsgType::Shutdown) {
    Response response = handle(request);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - started);
    registry.histogram("service.latency." + name)
        .record(static_cast<std::uint64_t>(elapsed.count()));
    return response;
  }

  // Load shedding: admit at most max_in_flight concurrent handlers; the
  // rest get an explicit BUSY instead of queueing without bound.
  const std::size_t admitted = in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (admitted >= options_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    registry.counter("service.requests.busy").add();
    Response busy;
    busy.status = Status::Busy;
    busy.body = "server at capacity (" + std::to_string(admitted) + " requests in flight)";
    return busy;
  }

  // The decrement must run exactly once whether the handler completes, the
  // deadline fires (handler still running, still holding its slot), or the
  // queued task is cancelled at shutdown (handler never runs).
  auto decremented = std::make_shared<std::atomic<bool>>(false);
  auto release_slot = [this, decremented] {
    if (!decremented->exchange(true)) in_flight_.fetch_sub(1, std::memory_order_relaxed);
  };

  util::TaskFuture<Response> future = pool_->submit([this, request, release_slot] {
    Response response;
    try {
      response = handle(request);
    } catch (const util::Error& e) {
      response.status = Status::Error;
      response.body = e.what();
    } catch (const std::exception& e) {
      response.status = Status::Error;
      response.body = std::string("internal error: ") + e.what();
    }
    release_slot();
    return response;
  });

  Response response;
  if (!future.wait_for(std::chrono::milliseconds(options_.request_timeout_ms))) {
    // Deadline exceeded: the handler keeps running (and keeps its in-flight
    // slot) but its result is discarded.
    registry.counter("service.requests.deadline_exceeded").add();
    response.status = Status::Error;
    response.body = "deadline exceeded after " + std::to_string(options_.request_timeout_ms) +
                    " ms";
  } else {
    try {
      response = future.get();
    } catch (const util::CancelledError&) {
      release_slot();  // the task never ran, so it never released
      response.status = Status::Error;
      response.body = "server shutting down";
    }
  }

  if (response.status == Status::Error)
    registry.counter("service.requests.error").add();
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - started);
  registry.histogram("service.latency." + name)
      .record(static_cast<std::uint64_t>(elapsed.count()));
  return response;
}

std::vector<std::string> Server::expand_paths(const std::vector<std::string>& paths) const {
  std::vector<std::string> expanded;
  expanded.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string collection;
    if (!ingest::is_collection_ref(path, &collection)) {
      expanded.push_back(path);
      continue;
    }
    PMACX_CHECK(ingest_ != nullptr,
                "'" + path + "' names a collection but ingestion is not enabled "
                "(start the server with --ingest-dir)");
    for (std::string& member : ingest_->resolve(collection))
      expanded.push_back(std::move(member));
  }
  return expanded;
}

Response Server::handle(const Request& request) {
  Response response;
  switch (request.type) {
    case MsgType::Fit: {
      const ModelStore::ModelsResult models =
          store_.models_for(expand_paths(request.spec.trace_paths), request.spec.to_options());
      response.body = models.digest;
      break;
    }
    case MsgType::Extrapolate: {
      const ModelStore::ModelsResult models =
          store_.models_for(expand_paths(request.spec.trace_paths), request.spec.to_options());
      const core::ExtrapolationResult result =
          core::extrapolate_from_models(*models.models, request.target_cores);
      response.body = trace::to_binary(result.trace);
      break;
    }
    case MsgType::PredictInterval: {
      // Same content address as Fit/Extrapolate: the coverage is a query
      // parameter, not part of the model digest, so interval requests reuse
      // (and warm) the point path's cached fits.
      const ModelStore::ModelsResult models =
          store_.models_for(expand_paths(request.spec.trace_paths), request.spec.to_options());
      response.body =
          *store_.interval_for(models, request.target_cores, request.interval_coverage);
      break;
    }
    case MsgType::UploadTrace: {
      PMACX_CHECK(ingest_ != nullptr,
                  "ingestion is not enabled (start the server with --ingest-dir)");
      response.body = ingest_->handle(request.upload);
      break;
    }
    case MsgType::Predict: {
      const ModelStore::ModelsResult models =
          store_.models_for(expand_paths(request.spec.trace_paths), request.spec.to_options());
      const auto signature = store_.signature_for(models, request.target_cores, request.app,
                                                  request.work_scale);
      const auto profile = store_.profile_for(request.machine_target);
      const psins::PredictionResult prediction = psins::predict(*signature, *profile);
      response.body = psins::render_prediction(signature->demanding_task(),
                                               profile->system.name, prediction);
      break;
    }
    case MsgType::Status: {
      const StoreStats stats = store_.stats();
      const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now() - started_at_);
      std::ostringstream out;
      // Identity first: version and uptime distinguish a freshly restarted
      // shard from a long-lived one, shard_id/ring_epoch (cluster mode) let
      // the router spot a shard launched against a stale topology.
      out << "version " << util::metrics::RunManifest::for_tool("pmacx_serve").version << "\n"
          << "uptime_ms " << uptime.count() << "\n";
      if (options_.shard_id >= 0)
        out << "shard_id " << options_.shard_id << "\n"
            << "ring_epoch " << std::hex << options_.ring_epoch << std::dec << "\n";
      out << "requests " << handled_.load(std::memory_order_relaxed) << "\n"
          << "in_flight " << in_flight_.load(std::memory_order_relaxed) << "\n"
          << "cache.hits " << stats.hits << "\n"
          << "cache.misses " << stats.misses << "\n"
          << "cache.evictions " << stats.evictions << "\n"
          << "cache.invalidations " << stats.invalidations << "\n"
          << "cache.bytes " << stats.bytes << "\n"
          << "cache.entries " << stats.entries << "\n";
      if (ingest_) {
        out << "ingest.collections " << ingest_->registry().collection_count() << "\n"
            << "ingest.files " << ingest_->registry().file_count() << "\n"
            << "ingest.open_sessions " << ingest_->uploads().open_sessions() << "\n"
            << "ingest.refits " << ingest_->refits().refits_completed() << "\n";
      }
      response.body = out.str();
      break;
    }
    case MsgType::Shutdown:
      response.body = "draining";
      break;
  }
  return response;
}

}  // namespace pmacx::service
