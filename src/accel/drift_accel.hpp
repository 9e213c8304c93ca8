// The Drift accelerator (Section 4): a BitGroup grid with
// bidirectional inter-BG links that is split, per layer, into four
// independent weight-stationary systolic arrays — one per precision
// class (hh / hl / lh / ll) — sized by the balanced online scheduler
// (Equation 8).  Steering each class to its own array removes the
// data-flow stalls that throttle single-array designs.
#pragma once

#include <optional>
#include <string>

#include "accel/accelerator.hpp"
#include "core/scheduler.hpp"

namespace drift::accel {

/// Which split policy the controller uses (ablation A).
enum class SchedulerPolicy {
  kGreedy,      ///< the paper's O(R + C) alternating sweep
  kExhaustive,  ///< oracle over all (r, c)
  kFixed,       ///< static quarter split (no load balancing)
};

std::string to_string(SchedulerPolicy policy);

/// The policy whose to_string name is `name` ("greedy", "exhaustive",
/// "fixed"); nullopt for anything else.
std::optional<SchedulerPolicy> parse_scheduler_policy(const std::string& name);

class DriftAccelModel : public Accelerator {
 public:
  DriftAccelModel(AccelConfig config,
                  SchedulerPolicy policy = SchedulerPolicy::kGreedy)
      : Accelerator(std::move(config)), policy_(policy) {}

  std::string name() const override;

  RunResult run(const nn::WorkloadSpec& spec,
                const std::vector<nn::LayerMix>& mixes) override;

  SchedulerPolicy policy() const { return policy_; }

 private:
  core::SplitDecision schedule(const core::LayerWork& work) const;

  SchedulerPolicy policy_;
};

}  // namespace drift::accel
