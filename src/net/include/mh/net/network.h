#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <string_view>
#include <vector>

#include "mh/common/buffer.h"
#include "mh/common/metrics.h"
#include "mh/common/metrics_snapshot.h"
#include "mh/common/trace.h"
#include "mh/net/fault_plan.h"

/// \file network.h
/// In-process cluster network fabric.
///
/// Every daemon in the live layer (NameNode, DataNode, JobTracker,
/// TaskTracker) binds a (host, port) endpoint on a shared Network and talks
/// to peers through it. The fabric provides the semantics the course's
/// platform war stories depend on:
///
///  * **Port exclusivity** — binding an already-bound port throws, which is
///    how leftover "ghost" Hadoop daemons break the next student's cluster
///    (paper §II-B).
///  * **Host liveness** — a crashed host stops answering; callers see a
///    NetworkError, heartbeat listeners see staleness.
///  * **Byte metering** — control-plane and data-plane RPCs are counted
///    per traffic tag ("shuffle", "replication", "staging", ...) and
///    split into local (loopback) vs remote bytes, which is what the
///    combiner and locality experiments report.
///  * **Optional throttling** — a configurable per-link bandwidth and
///    latency turn byte counts into realistic wall-clock costs when an
///    experiment needs them (defaults are free/instant so unit tests fly).
///  * **Fault injection** — an optional FaultPlan (fault_plan.h) can drop,
///    delay, error or corrupt individual calls and sever host groups. With no plan
///    installed the fast path costs exactly one relaxed atomic load per
///    call — no lock, no RNG draw.
///
/// Every request body and reply is a refcounted BufferView, so control
/// messages and bulk payloads take the same path and a payload crosses the
/// fabric without being copied. An owned `Bytes` (e.g. `pack(...)`) is
/// adopted by move wherever a view is expected.

namespace mh::net {

/// A message delivered to a bound endpoint.
struct RpcRequest {
  std::string method;     ///< e.g. "heartbeat", "getBlockLocations"
  BufferView body;        ///< serialized arguments, shared with the caller
  std::string from_host;  ///< caller's host name
  /// The caller's causal trace context at call time (zero when tracing is
  /// off). Handlers run on the caller's thread, so the ambient context is
  /// already installed for them — this field is the explicit copy for
  /// handlers that hand work to another thread.
  TraceContext trace;
  /// The caller's cancellation — the stand-in for a client closing its
  /// connection. A handler that blocks (a held heartbeat) waits on it too,
  /// so a caller that shuts down is never stuck inside a peer's handler.
  std::stop_token cancel;
};

/// Endpoint handler: receives a request, returns a serialized response.
/// Handlers run synchronously on the caller's thread; they may throw, and
/// the exception propagates to the caller (mimicking an RPC fault). The
/// returned view is handed to the caller uncopied, so its backing buffer
/// must outlive the handler frame (owned by a store or freshly built —
/// never a view of handler-local bytes).
using RpcHandler = std::function<BufferView(const RpcRequest&)>;

/// Old name of RpcRequest, kept only for perfbench/layers.cpp.
using BufRpcRequest = RpcRequest;

/// Accumulated traffic for one tag.
struct TrafficStats {
  uint64_t remote_bytes = 0;  ///< bytes that crossed between two hosts
  uint64_t local_bytes = 0;   ///< loopback bytes (same host)
  uint64_t messages = 0;      ///< call legs (request and reply each count)
};

class Network {
 public:
  /// Honors `MH_TRACE` (truthy value enables the tracer) and
  /// `MH_METRICS_SNAPSHOT_MS` (> 0 starts the metrics snapshotter at that
  /// interval), mirroring `MH_LOG_LEVEL` — quickstarts and examples can
  /// turn observability on without code edits.
  Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a host (idempotent). Hosts start up.
  void addHost(const std::string& host);

  /// Returns all registered host names, sorted.
  std::vector<std::string> hosts() const;

  /// Binds a handler to (host, port). Throws AlreadyExistsError if the port
  /// is taken — the ghost-daemon failure mode.
  void bind(const std::string& host, int port, RpcHandler handler);

  /// Old name of bind(), kept only for perfbench/layers.cpp.
  void bindBuf(const std::string& host, int port, RpcHandler handler) {
    bind(host, port, std::move(handler));
  }

  /// Releases a port. Unknown endpoints are ignored (idempotent teardown).
  /// Blocks until every in-flight invocation of the endpoint's handler has
  /// returned — the caller is usually a daemon about to destroy the state
  /// those handlers touch, so returning early would hand a concurrent RPC a
  /// dangling `this`. Must not be called from inside the endpoint's own
  /// handler (it would wait for itself).
  void unbind(const std::string& host, int port);

  /// Releases every port on a host — the batch scheduler's node-cleanup
  /// epilogue that kills leftover ghost daemons. Returns how many ports
  /// were freed. Same drain barrier as unbind(): in-flight handlers finish
  /// before this returns.
  size_t unbindAll(const std::string& host);

  /// True if something is bound at (host, port).
  bool isBound(const std::string& host, int port) const;

  /// Marks a host down (crash) or back up. A down host keeps its bindings —
  /// like a hung JVM — but refuses all traffic.
  void setHostUp(const std::string& host, bool up);

  /// Synchronous RPC. Throws NetworkError when the destination host is down
  /// or nothing is bound at the port. The body reaches the handler and the
  /// reply reaches the caller as the same views, so a 64 MB payload costs a
  /// refcount bump, not a copy. Bytes are still charged as if they moved:
  /// the request leg is metered at body + method size and the reply leg at
  /// reply size under `tag` (control traffic defaults to "rpc"; data-plane
  /// calls pass "read" / "pipeline" / "replication" / "shuffle" so
  /// experiments can attribute traffic), paced by the bandwidth model, and
  /// timed into the `rpc.<method>.micros` histogram. `cancel` reaches the
  /// handler as RpcRequest::cancel.
  BufferView call(const std::string& from, const std::string& to, int port,
                  std::string method, BufferView body,
                  std::string_view tag = "rpc", std::stop_token cancel = {});

  /// Old name of call(), kept only for perfbench/layers.cpp.
  BufferView callBuf(const std::string& from, const std::string& to, int port,
                     std::string method, BufferView body,
                     std::string_view tag = "rpc") {
    return call(from, to, port, std::move(method), std::move(body), tag);
  }

  /// One-way propagation delay applied to every remote call leg. Safe to
  /// change while daemons are calling.
  void setLatencyMicros(int64_t micros) {
    latency_micros_.store(micros, std::memory_order_relaxed);
  }

  /// Per-link bandwidth in bytes/second; 0 disables pacing. Safe to change
  /// while daemons are calling.
  void setBandwidthBytesPerSec(uint64_t bps) {
    bandwidth_bps_.store(bps, std::memory_order_relaxed);
  }

  /// Snapshot of traffic per tag.
  std::map<std::string, TrafficStats> stats() const;

  /// Total remote bytes for one tag (0 if the tag never appeared).
  uint64_t remoteBytes(std::string_view tag) const;
  uint64_t localBytes(std::string_view tag) const;
  uint64_t messages(std::string_view tag) const;

  void resetStats();

  /// The cluster-wide metrics root. Daemons sharing this fabric claim
  /// child registries ("namenode", "tasktracker.<host>", ...); the fabric
  /// itself reports per-method RPC latency histograms and per-tag traffic
  /// gauges under "network".
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The cluster-wide trace journal (disabled by default).
  TraceCollector& tracer() { return tracer_; }
  const TraceCollector& tracer() const { return tracer_; }

  /// Starts (creating on first use) the background metrics snapshotter
  /// sampling `metrics()` — a time series over every counter/gauge/
  /// histogram on the cluster. Options are honored on first call only.
  MetricsSnapshotter& startSnapshotter(MetricsSnapshotter::Options options = {});
  /// Stops the snapshotter's thread, keeping captured snapshots readable.
  /// Callers owning daemons MUST stop the snapshotter before destroying
  /// them: gauge callbacks capture daemon state.
  void stopSnapshotter();
  /// Null until startSnapshotter() has been called.
  MetricsSnapshotter* snapshotter();

  /// Installs (or, with nullptr, removes) a fault plan. Every subsequent
  /// call consults it; injected faults surface as NetworkError to
  /// the caller, `network.faults.*` counters, and FAULT_INJECT trace
  /// instants. Passing nullptr restores the fault-free fast path.
  void setFaultPlan(std::shared_ptr<FaultPlan> plan);
  std::shared_ptr<FaultPlan> faultPlan() const;

 private:
  /// One bound endpoint: its handler plus a count of handler invocations
  /// currently executing. The count is what makes unbind() a barrier: once
  /// it drains to zero, no thread is inside the handler and whatever the
  /// handler captured may be destroyed.
  struct Endpoint {
    RpcHandler handler;
    std::atomic<uint64_t> inflight{0};
  };

  /// Pins an endpoint for one handler invocation: holds a strong reference
  /// (the std::function outlives a concurrent unbind) and keeps `inflight`
  /// raised until destruction, at which point a draining unbind() is woken.
  class Pin {
   public:
    Pin(Network* net, std::shared_ptr<Endpoint> endpoint)
        : net_(net), endpoint_(std::move(endpoint)) {}
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin();
    const Endpoint* operator->() const { return endpoint_.get(); }

   private:
    Network* net_;
    std::shared_ptr<Endpoint> endpoint_;
  };

  /// Resolves (to, port) under the lock: host-liveness checks plus a pin on
  /// the endpoint so the handler runs without holding the lock while a
  /// concurrent unbind() waits for it.
  Pin route(const std::string& from, const std::string& to, int port);

  void meter(const std::string& from, const std::string& to, uint64_t bytes,
             std::string_view tag);
  void pace(const std::string& from, const std::string& to,
            uint64_t bytes) const;
  void checkHostUpLocked(const std::string& host) const;

  /// Slow path, entered only when a plan is installed: asks the plan for a
  /// verdict and carries it out. Throws NetworkError for drop/error faults,
  /// sleeps for delay faults, swaps `body` for a corrupted copy on corrupt
  /// faults, and returns true when the *response* must be discarded after
  /// the handler runs.
  bool applyFault(const std::string& from, const std::string& to,
                  std::string_view method, std::string_view tag,
                  BufferView& body);

  mutable std::mutex mutex_;
  /// Signaled when an endpoint's inflight count drops to zero; unbind()
  /// waits here for its victim to drain.
  std::condition_variable drain_cv_;
  std::map<std::string, bool> host_up_;
  std::map<std::pair<std::string, int>, std::shared_ptr<Endpoint>> endpoints_;
  std::map<std::string, TrafficStats, std::less<>> traffic_;
  std::atomic<int64_t> latency_micros_{0};
  std::atomic<uint64_t> bandwidth_bps_{0};

  // Fault injection. faults_enabled_ is the only thing the zero-fault path
  // reads (one relaxed load per call); the plan pointer lives behind its
  // own mutex so installing a plan mid-run is safe without touching the
  // endpoint lock.
  mutable std::mutex fault_mutex_;
  std::shared_ptr<FaultPlan> fault_plan_;
  std::atomic<bool> faults_enabled_{false};

  // Declared after mutex_/traffic_ so gauge callbacks registered against
  // net_metrics_ can safely read traffic during destruction ordering.
  MetricsRegistry metrics_;
  TraceCollector tracer_;
  MetricsRegistry* net_metrics_ = &metrics_.child("network");

  // Declared last so the sampling thread is stopped before the registries
  // (and everything gauges reference) are torn down.
  mutable std::mutex snapshot_mutex_;
  std::unique_ptr<MetricsSnapshotter> snapshotter_;
};

}  // namespace mh::net
