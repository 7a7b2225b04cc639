#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mh/common/rng.h"

/// \file fault_plan.h
/// Deterministic fault injection for the in-process network fabric.
///
/// A FaultPlan is a list of rules plus a set of host partitions that a
/// Network consults (when one is installed) for every RPC. Rules can drop
/// a request before delivery, drop the response after the handler ran (the
/// at-least-once hazard), inject a connection error, add latency, or
/// corrupt one byte of the request body in flight — each either
/// probabilistically from a seeded RNG or scripted to fire on exactly the
/// Nth matching call.
///
/// Determinism contract: each rule owns its own RNG stream derived from
/// (plan seed, rule index), and draws once per matching call while its
/// injection budget lasts. Feed two same-seed plans the same sequence of
/// calls and they inject the identical fault sequence — which is what
/// lets a chaos test replay a failing seed bit-for-bit.

namespace mh::net {

/// What an injected fault does to a matched call.
enum class FaultAction : uint8_t {
  kDrop,          ///< request lost in flight: the handler never runs and the
                  ///< caller sees a NetworkError, like an unacked send.
  kDropResponse,  ///< the handler runs — side effects land! — but the
                  ///< response is lost and the caller sees a NetworkError.
                  ///< Exercises at-least-once delivery and idempotency.
  kError,         ///< connection reset before delivery; handler never runs.
  kDelay,         ///< the call proceeds after an extra delay_micros sleep.
  kCorrupt,       ///< the callee receives the body with one byte flipped
                  ///< (position drawn from the rule's RNG). Copy-on-write:
                  ///< the caller's buffer, and any view of it the caller
                  ///< keeps or forwards, stay clean. An empty body passes
                  ///< unharmed.
};

const char* faultActionName(FaultAction action);

/// Selects the calls a rule applies to. Empty fields are wildcards.
struct FaultMatch {
  std::string method;  ///< exact RPC method name ("heartbeat", ...)
  std::string from;    ///< caller host
  std::string to;      ///< callee host
  std::string tag;     ///< traffic tag ("rpc", "shuffle", "read", ...)

  bool matches(std::string_view from_host, std::string_view to_host,
               std::string_view method_name,
               std::string_view traffic_tag) const;
};

/// One injection rule. Probabilistic by default; set `nth` to script a
/// one-shot fault ("fail the 3rd matching call").
struct FaultRule {
  FaultMatch match;
  FaultAction action = FaultAction::kDrop;
  /// Chance of firing per matching call. Ignored when nth > 0.
  double probability = 1.0;
  /// Extra latency for kDelay.
  int64_t delay_micros = 0;
  /// When > 0, fire on exactly the nth matching call (1-based) and never
  /// again — a scripted fault instead of a probabilistic one.
  uint64_t nth = 0;
  /// Injection budget. A finite cap makes probabilistic chaos dry up, so a
  /// retrying job is guaranteed to eventually get through.
  uint64_t max_fires = std::numeric_limits<uint64_t>::max();
};

/// The fate the plan hands back to the fabric for one call.
struct FaultDecision {
  FaultAction action;
  int64_t delay_micros = 0;
  /// kCorrupt: a seeded draw; the flipped byte is corrupt_at % body size.
  uint64_t corrupt_at = 0;
  std::string detail;  ///< human-readable cause ("rule 2", "partition")
};

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed = 0);

  /// Appends a rule and returns its index. Rules are consulted in order;
  /// the first one that fires decides the call.
  size_t addRule(FaultRule rule);

  /// Severs every (a, b) host pair across the two groups, both directions.
  /// Partitions stack; heal() removes them all. Deterministic — no RNG.
  void partition(std::vector<std::string> side_a,
                 std::vector<std::string> side_b);
  void heal();
  bool partitioned(std::string_view a, std::string_view b) const;

  /// Decides the fate of one call.
  /// Partitions are consulted first, then rules in insertion order.
  std::optional<FaultDecision> decide(std::string_view from,
                                      std::string_view to,
                                      std::string_view method,
                                      std::string_view tag);

  /// Total faults injected so far (rules + partition refusals).
  uint64_t injectedFaults() const;
  /// Faults injected by one rule.
  uint64_t ruleFires(size_t index) const;

  uint64_t seed() const { return seed_; }

 private:
  struct RuleState {
    FaultRule rule;
    Rng rng;             ///< per-rule stream: independent of other rules
    uint64_t seen = 0;   ///< matching calls so far
    uint64_t fires = 0;  ///< faults injected so far
  };

  mutable std::mutex mutex_;
  uint64_t seed_;
  std::vector<RuleState> rules_;
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      partitions_;
  uint64_t injected_ = 0;
};

}  // namespace mh::net
