// Helpers of the knowledge-expansion benchmark: order statistics, the
// quality scorer, table digests, span summaries and the result-line
// writer. Kept apart from bench_main.cc so bench_lib_test.cc
// can check them on hand-made inputs.
#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/ground_truth.h"
#include "kb/ids.h"
#include "obs/trace.h"
#include "relational/table.h"

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); NaN when
/// empty.
double Median(std::vector<double> v);

/// Arithmetic mean of `v`; NaN when empty.
double Mean(const std::vector<double>& v);

/// Quartiles exactly as Python's `statistics.quantiles(v, n=4)` (the
/// default "exclusive" method) computes them; with fewer than two values
/// all three quartiles are that value (NaN when empty).
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles QuartilesOf(std::vector<double> v);

/// Nearest-rank percentile `pct` (0 < pct < 100) of `v`, reported only when
/// at least `min_beyond` samples rank above it: a tail figure resting on
/// fewer samples is noise, so the caller gets nullopt instead.
std::optional<double> TailPercentile(std::vector<double> v, double pct,
                                     int64_t min_beyond = 10);

/// True when `name` is 1-64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit — the names the result line may carry.
bool IsValidMetricName(std::string_view name);

/// Quality of the facts a run inferred, scored against the generator's
/// ground truth. A fact is inferred when its id is at or above the
/// pipeline's first inferred id; write-back leaves its marginal in w, so
/// the NULL-weight test of EvaluateInferred cannot find it there.
struct QualityScore {
  int64_t inferred = 0;
  int64_t correct = 0;
  /// correct / inferred; 0 when nothing was inferred.
  double precision = 0.0;
  /// Mean of (w - truth)^2 over inferred facts whose w is set; NaN when
  /// none is.
  double brier = 0.0;
  int64_t scored_marginals = 0;
};
QualityScore ScoreInferred(const probkb::Table& t_pi,
                           probkb::FactId first_inferred_id,
                           const probkb::GroundTruth& truth);

/// Order-sensitive digest of every row and column of `table`, folded from
/// Table::HashRows; equal tables in equal row order give equal digests.
uint64_t TableDigest(const probkb::Table& table);

/// Order-sensitive digest of a vector of doubles (bit patterns).
uint64_t DoublesDigest(const std::vector<double>& values);

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A fixed unit of work whose time tracks the host's current speed: a
/// chain of dependent loads over a 4 MiB random single cycle, so each load
/// waits on the shared last-level cache, the resource whose contention
/// from other tenants slows the program most. Timing it right after each
/// operation and reporting operation time / probe time cancels the slow
/// swings of host speed that no statistic inside one run removes.
class HostProbe {
 public:
  /// A single cycle through `entries` slots (Sattolo's shuffle, fixed
  /// seed), so the chase visits every slot before repeating.
  explicit HostProbe(uint32_t entries = 1u << 20);

  /// Slot reached after `steps` loads from slot `from`.
  uint32_t Walk(int64_t steps, uint32_t from = 0) const;

  /// Wall seconds of `threads` concurrent Walk(kSteps) calls from evenly
  /// spaced slots: as many threads as the operation it is compared with.
  double Seconds(int threads = 1) const;

  static constexpr int64_t kSteps = 3 << 20;

 private:
  std::vector<uint32_t> next_;
};

/// Durations in seconds of the spans named `name`, in the order they
/// closed (CollectSpans order).
std::vector<double> SpanSeconds(const std::vector<probkb::SpanRecord>& spans,
                                std::string_view name);

/// For each root span (parent_id 0): (root wall - sum of its direct
/// children) / root wall, i.e. the share of the root's time no child span
/// accounts for.
std::vector<double> UnattributedShares(
    const std::vector<probkb::SpanRecord>& spans);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders the result line: {"correct": ..., "attempted": ..., "failed":
/// ..., "metrics": {name: {"value": v, "unit": u}}} with every value at
/// full precision. Non-finite values and invalid names make the run
/// incorrect, since they cannot be compared across runs.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
