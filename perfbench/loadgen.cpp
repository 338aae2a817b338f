// Serving side of the benchmark: spawning pmacx_serve, and the open- and
// closed-loop PREDICT generators.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "service/client.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace psvc = pmacx::service;

ServerProcess spawn_server(const std::string& binary, const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    std::vector<std::string> argv_storage{binary};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string banner;
  char byte = 0;
  while (banner.size() < 256 && ::read(fds[0], &byte, 1) == 1 && byte != '\n')
    banner.push_back(byte);
  ::close(fds[0]);
  const std::size_t marker = banner.find(" listening on ");
  const std::size_t colon = banner.rfind(':');
  if (marker == std::string::npos || colon == std::string::npos || colon < marker) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw std::runtime_error("unexpected banner from " + binary + ": '" + banner + "'");
  }
  ServerProcess server;
  server.pid = pid;
  server.port = static_cast<std::uint16_t>(std::stoul(banner.substr(colon + 1)));
  return server;
}

bool stop_server(ServerProcess& server, std::uint64_t grace_ms) {
  if (server.pid <= 0) return true;
  try {
    psvc::ClientOptions options;
    options.port = server.port;
    options.io_timeout_ms = grace_ms;
    psvc::Client client(options);
    psvc::Request shutdown;
    shutdown.type = psvc::MsgType::Shutdown;
    client.call(shutdown);
  } catch (const std::exception&) {
    ::kill(server.pid, SIGTERM);
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  int status = 0;
  for (;;) {
    const pid_t reaped = ::waitpid(server.pid, &status, WNOHANG);
    if (reaped == server.pid) break;
    if (reaped < 0 || Clock::now() >= deadline) {
      ::kill(server.pid, SIGKILL);
      ::waitpid(server.pid, &status, 0);
      server.pid = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.pid = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double peak_rss_mib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t status_value(const std::string& body, const std::string& key) {
  for (const std::string& line : pmacx::util::split(body, '\n')) {
    std::istringstream in(line);
    std::string name;
    std::uint64_t value = 0;
    if ((in >> name >> value) && name == key) return value;
  }
  return 0;
}

psvc::Request predict_request(const PredictKey& key, const std::string& machine) {
  psvc::Request request;
  request.type = psvc::MsgType::Predict;
  request.spec.trace_paths = key.trace_paths;
  request.target_cores = key.target_cores;
  request.app = key.app;
  request.work_scale = key.work_scale;
  request.machine_target = machine;
  return request;
}

std::size_t PhaseResult::failed() const {
  std::size_t count = 0;
  for (const Outcome& outcome : outcomes) count += outcome.ok ? 0 : 1;
  return count;
}

std::vector<double> PhaseResult::latencies(double limit_ms) const {
  std::vector<double> values;
  values.reserve(outcomes.size());
  for (const Outcome& outcome : outcomes)
    values.push_back(outcome.ok ? outcome.latency_ms : std::max(outcome.latency_ms, limit_ms));
  return values;
}

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

PhaseResult run_requests(std::uint16_t port, const std::vector<PredictKey>& keys,
                         const std::vector<std::size_t>& sequence, double rate,
                         std::size_t connections, const std::string& machine,
                         const BodyCheck& check, SpanRecorder& spans, std::uint64_t parent) {
  PhaseResult result;
  result.outcomes.resize(sequence.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      psvc::ClientOptions options;
      options.port = port;
      options.io_timeout_ms = 30'000;
      options.jitter_seed = 0x5eed + t;
      std::unique_ptr<psvc::Client> client;
      for (;;) {
        const Clock::time_point free_at = Clock::now();
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= sequence.size()) break;
        Outcome& outcome = result.outcomes[i];
        Clock::time_point due = std::max(start, free_at);
        if (rate > 0) {
          due = start + std::chrono::nanoseconds(
                            static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate));
          std::this_thread::sleep_until(due);
        }
        const Clock::time_point sent = Clock::now();
        outcome.lateness_ms = ms_between(std::max(due, free_at), sent);
        const psvc::Request request = predict_request(keys[sequence[i]], machine);
        try {
          if (!client) client = std::make_unique<psvc::Client>(options);
          const psvc::Response response = client->call(request);
          outcome.ok = response.status == psvc::Status::Ok && check(sequence[i], response.body);
          if (!outcome.ok)
            std::fprintf(stderr, "perfbench: PREDICT %s failed (status %d): %s\n",
                         keys[sequence[i]].label().c_str(), static_cast<int>(response.status),
                         response.body.c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: PREDICT transport failure: %s\n", e.what());
          client.reset();
          outcome.ok = false;
        }
        const Clock::time_point replied = Clock::now();
        outcome.latency_ms = ms_between(due, replied);
        outcome.rtt_ms = ms_between(sent, replied);
        if (spans.enabled()) {
          const std::uint64_t request_id = spans.next_request();
          const std::uint64_t outer =
              spans.record("loadgen.request", parent, request_id, due, replied);
          spans.record("service.predict_rpc", outer, request_id, sent, replied);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_s = seconds_since(start);
  return result;
}

}  // namespace perfbench
