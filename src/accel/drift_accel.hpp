// The Drift accelerator (Section 4): a BitGroup grid with
// bidirectional inter-BG links that is split, per layer, into four
// independent weight-stationary systolic arrays — one per precision
// class (hh / hl / lh / ll) — sized by the balanced online scheduler
// (Equation 8).  Steering each class to its own array removes the
// data-flow stalls that throttle single-array designs.
#pragma once

#include <optional>
#include <string>
#include <vector>

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

  /// The split this model runs `work` on: the policy's scheduler
  /// decision on config().array, bit for bit.  The first call for a
  /// work runs the scheduler and stores its decision; a later call for
  /// an equal work returns the stored one and only re-publishes it
  /// (core::record_decision), so every call counts one
  /// scheduler.decisions and fills the current layer record alike.
  core::SplitDecision schedule(const core::LayerWork& work);

 private:
  /// The policy's scheduler on config().array; publishes its decision.
  core::SplitDecision sweep(const core::LayerWork& work) const;

  struct SplitEntry {
    core::LayerWork work;
    core::SplitDecision split;
  };

  SchedulerPolicy policy_;
  /// Every decision this instance has made, sorted by work (all nine
  /// LayerWork fields; the grid is fixed per model).  Eq. 8 is a pure
  /// function of (work, grid), so the table holds one entry per
  /// distinct work the model has seen; a serving run repeats a few
  /// hundred works over tens of thousands of batch layers.  One sorted
  /// vector, not a node-based map: a lookup is a binary search over
  /// one allocation.  Not synchronized: no instance is ever run from
  /// two threads (no parallel_for reaches Accelerator::run).
  std::vector<SplitEntry> splits_;
};

}  // namespace drift::accel
