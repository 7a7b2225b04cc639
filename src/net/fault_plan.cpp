#include "mh/net/fault_plan.h"

#include <algorithm>

namespace mh::net {
namespace {

/// Derives the per-rule RNG stream. SplitMix-style odd multiplier keeps
/// streams for adjacent rule indices uncorrelated.
uint64_t ruleSeed(uint64_t plan_seed, size_t rule_index) {
  return plan_seed ^
         (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(rule_index) + 1));
}

bool fieldMatches(const std::string& want, std::string_view got) {
  return want.empty() || want == got;
}

bool groupContains(const std::vector<std::string>& group,
                   std::string_view host) {
  return std::find(group.begin(), group.end(), host) != group.end();
}

}  // namespace

const char* faultActionName(FaultAction action) {
  switch (action) {
    case FaultAction::kDrop:
      return "drop";
    case FaultAction::kDropResponse:
      return "drop_response";
    case FaultAction::kError:
      return "error";
    case FaultAction::kDelay:
      return "delay";
    case FaultAction::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

bool FaultMatch::matches(std::string_view from_host, std::string_view to_host,
                         std::string_view method_name,
                         std::string_view traffic_tag) const {
  return fieldMatches(method, method_name) && fieldMatches(from, from_host) &&
         fieldMatches(to, to_host) && fieldMatches(tag, traffic_tag);
}

FaultPlan::FaultPlan(uint64_t seed) : seed_(seed) {}

size_t FaultPlan::addRule(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t index = rules_.size();
  rules_.push_back(RuleState{std::move(rule), Rng(ruleSeed(seed_, index))});
  return index;
}

void FaultPlan::partition(std::vector<std::string> side_a,
                          std::vector<std::string> side_b) {
  std::lock_guard<std::mutex> lock(mutex_);
  partitions_.emplace_back(std::move(side_a), std::move(side_b));
}

void FaultPlan::heal() {
  std::lock_guard<std::mutex> lock(mutex_);
  partitions_.clear();
}

bool FaultPlan::partitioned(std::string_view a, std::string_view b) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [side_a, side_b] : partitions_) {
    if ((groupContains(side_a, a) && groupContains(side_b, b)) ||
        (groupContains(side_a, b) && groupContains(side_b, a))) {
      return true;
    }
  }
  return false;
}

std::optional<FaultDecision> FaultPlan::decide(std::string_view from,
                                               std::string_view to,
                                               std::string_view method,
                                               std::string_view tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Partitions first: a severed link refuses everything, deterministically.
  for (const auto& [side_a, side_b] : partitions_) {
    if ((groupContains(side_a, from) && groupContains(side_b, to)) ||
        (groupContains(side_a, to) && groupContains(side_b, from))) {
      ++injected_;
      return FaultDecision{FaultAction::kDrop, 0, 0, "partition"};
    }
  }
  for (size_t i = 0; i < rules_.size(); ++i) {
    RuleState& state = rules_[i];
    const FaultRule& rule = state.rule;
    if (!rule.match.matches(from, to, method, tag)) continue;
    ++state.seen;
    if (state.fires >= rule.max_fires) continue;
    bool fire;
    if (rule.nth > 0) {
      fire = state.seen == rule.nth;
    } else {
      // One draw per matching call while the budget lasts, so the verdict
      // for the nth match is a pure function of (seed, rule index, n).
      fire = state.rng.chance(rule.probability);
    }
    if (!fire) continue;
    ++state.fires;
    ++injected_;
    // The byte position is drawn from the same per-rule stream, only when
    // the rule fires: a corrupt rule replays its positions as exactly as
    // its verdicts.
    const uint64_t corrupt_at =
        rule.action == FaultAction::kCorrupt ? state.rng.next() : 0;
    return FaultDecision{rule.action, rule.delay_micros, corrupt_at,
                         "rule " + std::to_string(i)};
  }
  return std::nullopt;
}

uint64_t FaultPlan::injectedFaults() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

uint64_t FaultPlan::ruleFires(size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index < rules_.size() ? rules_[index].fires : 0;
}

}  // namespace mh::net
