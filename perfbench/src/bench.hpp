// Shared pieces of the host-cost benchmark: the workload interface, the
// output checker and the seed convention.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed at which every workload reproduces the committed artifacts
/// (fig7/fig8 use CompareConfig's default seed 17).  Each workload's
/// input seeds are its artifact's own seeds shifted by (seed - 17), so
/// any other seed gives new inputs and only the seed-independent
/// invariants can be checked.
inline constexpr std::uint64_t kReferenceSeed = 17;

inline std::uint64_t shifted_seed(std::uint64_t artifact_seed,
                                  std::uint64_t run_seed) {
  return artifact_seed + (run_seed - kReferenceSeed);  // modular on purpose
}

/// Counts operations and the ones whose outputs failed a check.  Checks
/// apply to the operation most recently opened with operation().
class Checks {
 public:
  /// When `record` is set, reference() collects observed values instead
  /// of comparing them (see print_recorded()).
  explicit Checks(bool record = false) : record_(record) {}

  /// Opens the next operation.
  void operation(std::string name);

  /// Fails the current operation unless `ok`.
  void expect(bool ok, const std::string& what);

  /// Bitwise equality of two values.
  void exact(double got, double want, const std::string& what);

  /// Compares `got` against the reference recorded under `key`.
  void reference(const std::string& key, double got);

  /// Compares `got`, formatted as the repository's CSV writer formats a
  /// double, with a committed artifact's cell (see artifact_cell()).
  void artifact(const std::string& cell, double got, const std::string& what);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  /// Prints every value reference() saw as reference-table lines.
  void print_recorded() const;

 private:
  bool record_;
  std::string current_;
  bool current_failed_ = false;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t reported_ = 0;
  std::map<std::string, double> recorded_;
};

/// Per-layer values of one traced pass, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// One traced pass: the same calls as an untraced pass, each layer's
/// public calls wrapped in timers, followed by the replays.
struct TracedPass {
  double wall_s = 0.0;     ///< the timed calls, comparable to wall_s
  double covered_s = 0.0;  ///< part of wall_s inside named layer timers
  LayerValues layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs and program state (timed as setup_s); returns any
  /// per-layer values measured on the way.
  virtual LayerValues setup() = 0;

  /// Timed set-ups before each pass (setup_s is their median); more
  /// than one only where a set-up is too short to time alone.
  virtual int setups_per_pass() const = 0;

  /// One untraced pass (timed as wall_s).
  virtual void run() = 0;

  /// Checks the outputs of the last run().
  virtual void check(Checks& checks) = 0;

  /// One traced pass, checked like run() plus the replays.
  virtual TracedPass traced(Checks& checks) = 0;
};

std::unique_ptr<Workload> make_paper_sim(std::uint64_t seed);
std::unique_ptr<Workload> make_proxy_accuracy(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_poisson(std::uint64_t seed);

/// The committed value of `column` in the row of the CSV `file` (relative
/// to the working directory, the repository root) whose leading cells
/// equal `row` ("ResNet18" or "GPT2-XL,Wiki"); empty when the file, row
/// or column is missing.
std::string artifact_cell(const std::string& file, const std::string& row,
                          const std::string& column);

/// The recorded reference outputs at kReferenceSeed (reference.cpp).
const std::map<std::string, double>& reference_table();

double median(std::vector<double> values);

}  // namespace perfbench
