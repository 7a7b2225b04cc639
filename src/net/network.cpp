#include "mh/net/network.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "mh/common/error.h"

namespace mh::net {

namespace {

bool envTruthy(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  const std::string_view s(v);
  return !(s.empty() || s == "0" || s == "false" || s == "off" || s == "no");
}

int64_t envInt(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  return std::strtoll(v, nullptr, 10);
}

}  // namespace

Network::Network() {
  // Truncated traces are self-describing: the export headers carry the
  // drop count, and so does the metrics tree.
  net_metrics_->setGauge("trace.dropped.events", [this] {
    return static_cast<double>(tracer_.droppedEvents());
  });
  if (envTruthy("MH_TRACE")) tracer_.setEnabled(true);
  if (const int64_t ms = envInt("MH_METRICS_SNAPSHOT_MS"); ms > 0) {
    startSnapshotter({.interval_ms = ms});
  }
}

void Network::addHost(const std::string& host) {
  std::lock_guard<std::mutex> lock(mutex_);
  host_up_.try_emplace(host, true);
}

std::vector<std::string> Network::hosts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(host_up_.size());
  for (const auto& [host, up] : host_up_) out.push_back(host);
  return out;
}

void Network::bind(const std::string& host, int port, RpcHandler handler) {
  auto endpoint = std::make_shared<Endpoint>();
  endpoint->handler = std::move(handler);
  std::lock_guard<std::mutex> lock(mutex_);
  host_up_.try_emplace(host, true);
  const auto key = std::make_pair(host, port);
  if (endpoints_.contains(key)) {
    throw AlreadyExistsError("port " + std::to_string(port) +
                             " already bound on " + host);
  }
  endpoints_.emplace(key, std::move(endpoint));
}

Network::Pin::~Pin() {
  if (endpoint_->inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last invocation out: wake any unbind() draining this endpoint.
    // Notifying under the lock closes the window where the waiter checks
    // the count, sees us still here, and goes to sleep after our notify.
    std::lock_guard<std::mutex> lock(net_->mutex_);
    net_->drain_cv_.notify_all();
  }
}

void Network::unbind(const std::string& host, int port) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = endpoints_.find(std::make_pair(host, port));
  if (it == endpoints_.end()) return;
  const std::shared_ptr<Endpoint> victim = std::move(it->second);
  endpoints_.erase(it);
  // Drain barrier: the port is free (rebinding may proceed — the wait
  // releases mutex_), but do not return until every in-flight handler
  // invocation has left. Whatever the handler captured is typically
  // destroyed right after this returns.
  drain_cv_.wait(lock, [&] {
    return victim->inflight.load(std::memory_order_acquire) == 0;
  });
}

size_t Network::unbindAll(const std::string& host) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Endpoint>> victims;
  for (auto it = endpoints_.begin(); it != endpoints_.end();) {
    if (it->first.first == host) {
      victims.push_back(std::move(it->second));
      it = endpoints_.erase(it);
    } else {
      ++it;
    }
  }
  drain_cv_.wait(lock, [&] {
    for (const auto& victim : victims) {
      if (victim->inflight.load(std::memory_order_acquire) != 0) return false;
    }
    return true;
  });
  return victims.size();
}

bool Network::isBound(const std::string& host, int port) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return endpoints_.contains(std::make_pair(host, port));
}

void Network::setHostUp(const std::string& host, bool up) {
  std::lock_guard<std::mutex> lock(mutex_);
  host_up_[host] = up;
}

void Network::checkHostUpLocked(const std::string& host) const {
  const auto it = host_up_.find(host);
  if (it == host_up_.end()) {
    throw NetworkError("unknown host " + host);
  }
  if (!it->second) {
    throw NetworkError("host " + host + " is down");
  }
}

Network::Pin Network::route(const std::string& from, const std::string& to,
                            int port) {
  std::lock_guard<std::mutex> lock(mutex_);
  checkHostUpLocked(from);
  checkHostUpLocked(to);
  const auto it = endpoints_.find(std::make_pair(to, port));
  if (it == endpoints_.end()) {
    throw NetworkError("connection refused: " + to + ":" +
                       std::to_string(port));
  }
  // Raised under the lock, so an unbind() that finds the endpoint gone has
  // already seen this invocation and will wait for the Pin to release it.
  it->second->inflight.fetch_add(1, std::memory_order_relaxed);
  return Pin{this, it->second};
}

BufferView Network::call(const std::string& from, const std::string& to,
                         int port, std::string method, BufferView body,
                         std::string_view tag, std::stop_token cancel) {
  const Pin endpoint = route(from, to, port);
  // Zero-fault fast path: one relaxed load, no lock, no RNG draw.
  bool drop_response = false;
  if (faults_enabled_.load(std::memory_order_relaxed)) {
    drop_response = applyFault(from, to, method, tag, body);
  }
  // A view crossing the fabric costs the bandwidth model the same as a copy
  // would: zero-copy changes who owns the bytes, never what they cost.
  meter(from, to, body.size() + method.size(), tag);
  pace(from, to, body.size());
  const auto started = std::chrono::steady_clock::now();
  // Carried on every call when tracing is on: spans recorded inside the
  // handler (which runs on this thread) become children of the caller's
  // active span via the ambient context; the request field is the explicit
  // copy for handlers that defer work to another thread.
  const TraceContext trace_ctx =
      tracer_.enabled() ? currentTraceContext() : TraceContext{};
  RpcRequest request{std::move(method), std::move(body), from, trace_ctx,
                     std::move(cancel)};
  BufferView reply = endpoint->handler(request);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  net_metrics_->histogram("rpc." + request.method + ".micros").record(micros);
  if (drop_response) {
    // The handler's side effects stand; only the reply is lost.
    throw NetworkError("injected fault: response lost for " + request.method +
                       " " + to + " -> " + from);
  }
  meter(to, from, reply.size(), tag);
  pace(to, from, reply.size());
  return reply;
}

void Network::setFaultPlan(std::shared_ptr<FaultPlan> plan) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_plan_ = std::move(plan);
  faults_enabled_.store(fault_plan_ != nullptr, std::memory_order_relaxed);
}

std::shared_ptr<FaultPlan> Network::faultPlan() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return fault_plan_;
}

MetricsSnapshotter& Network::startSnapshotter(
    MetricsSnapshotter::Options options) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  if (snapshotter_ == nullptr) {
    snapshotter_ = std::make_unique<MetricsSnapshotter>(&metrics_, options);
  }
  snapshotter_->start();
  return *snapshotter_;
}

void Network::stopSnapshotter() {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  if (snapshotter_ != nullptr) snapshotter_->stop();
}

MetricsSnapshotter* Network::snapshotter() {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshotter_.get();
}

bool Network::applyFault(const std::string& from, const std::string& to,
                         std::string_view method, std::string_view tag,
                         BufferView& body) {
  const auto plan = faultPlan();
  if (!plan) return false;  // raced with a concurrent clear
  const auto decision = plan->decide(from, to, method, tag);
  if (!decision) return false;
  const bool is_partition = decision->detail == "partition";
  net_metrics_->counter("faults.injected").add();
  if (is_partition) {
    net_metrics_->counter("faults.partitioned").add();
  } else {
    switch (decision->action) {
      case FaultAction::kDrop:
        net_metrics_->counter("faults.dropped").add();
        break;
      case FaultAction::kDropResponse:
        net_metrics_->counter("faults.response_dropped").add();
        break;
      case FaultAction::kError:
        net_metrics_->counter("faults.errored").add();
        break;
      case FaultAction::kDelay:
        net_metrics_->counter("faults.delayed").add();
        break;
      case FaultAction::kCorrupt:
        net_metrics_->counter("faults.corrupted").add();
        break;
    }
  }
  tracer_.instant("network",
                  std::string("FAULT_INJECT ") +
                      (is_partition ? "partition"
                                    : faultActionName(decision->action)) +
                      " " + std::string(method),
                  {{"from", from},
                   {"to", to},
                   {"tag", std::string(tag)},
                   {"cause", decision->detail}});
  switch (decision->action) {
    case FaultAction::kDrop:
      throw NetworkError("injected fault: " + std::string(method) + " " +
                         from + " -> " + to + " dropped (" + decision->detail +
                         ")");
    case FaultAction::kError:
      throw NetworkError("injected fault: connection reset " + from + " -> " +
                         to + " (" + decision->detail + ")");
    case FaultAction::kDelay:
      if (decision->delay_micros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(decision->delay_micros));
      }
      return false;
    case FaultAction::kDropResponse:
      return true;
    case FaultAction::kCorrupt:
      if (!body.empty()) {
        // Copy-on-write: the callee gets a private corrupted copy; every
        // other view of the original buffer keeps the clean bytes.
        Bytes corrupted(body.view());
        char& victim = corrupted[decision->corrupt_at % corrupted.size()];
        victim = static_cast<char>(victim ^ 0x5A);
        body = BufferView(std::move(corrupted));
      }
      return false;
  }
  return false;
}

void Network::meter(const std::string& from, const std::string& to,
                    uint64_t bytes, std::string_view tag) {
  bool first_sighting = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = traffic_.find(tag);
    if (it == traffic_.end()) {
      it = traffic_.emplace(std::string(tag), TrafficStats{}).first;
      first_sighting = true;
    }
    TrafficStats& stats = it->second;
    if (from == to) {
      stats.local_bytes += bytes;
    } else {
      stats.remote_bytes += bytes;
    }
    ++stats.messages;
  }
  if (first_sighting) {
    // Registered outside mutex_: gauge callbacks re-take mutex_ at export
    // time, so registering under it would invert the lock order.
    const std::string name(tag);
    net_metrics_->setGauge("traffic." + name + ".remote_bytes", [this, name] {
      return static_cast<double>(remoteBytes(name));
    });
    net_metrics_->setGauge("traffic." + name + ".local_bytes", [this, name] {
      return static_cast<double>(localBytes(name));
    });
    net_metrics_->setGauge("traffic." + name + ".messages", [this, name] {
      return static_cast<double>(messages(name));
    });
  }
}

void Network::pace(const std::string& from, const std::string& to,
                   uint64_t bytes) const {
  if (from == to) return;  // loopback: free
  int64_t delay_micros = latency_micros_.load(std::memory_order_relaxed);
  if (const uint64_t bps = bandwidth_bps_.load(std::memory_order_relaxed);
      bps > 0) {
    delay_micros += static_cast<int64_t>(static_cast<double>(bytes) /
                                         static_cast<double>(bps) * 1e6);
  }
  if (delay_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_micros));
  }
}

std::map<std::string, TrafficStats> Network::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {traffic_.begin(), traffic_.end()};
}

uint64_t Network::remoteBytes(std::string_view tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = traffic_.find(tag);
  return it == traffic_.end() ? 0 : it->second.remote_bytes;
}

uint64_t Network::localBytes(std::string_view tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = traffic_.find(tag);
  return it == traffic_.end() ? 0 : it->second.local_bytes;
}

uint64_t Network::messages(std::string_view tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = traffic_.find(tag);
  return it == traffic_.end() ? 0 : it->second.messages;
}

void Network::resetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  traffic_.clear();
}

}  // namespace mh::net
