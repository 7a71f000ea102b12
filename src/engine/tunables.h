#ifndef PROBKB_ENGINE_TUNABLES_H_
#define PROBKB_ENGINE_TUNABLES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace probkb {

/// Compile-time batch widths. These size stack arrays in the batched hash
/// pipelines (`size_t hashes[k...]`), so they cannot become runtime knobs
/// without moving those buffers to the heap; they are micro-architectural
/// (L1 / prefetch-queue depth), not workload-dependent, so a constant is
/// the right shape. Everything workload-dependent lives in Tunables below.
///
/// Rows a probe batch covers in the batched prefetch pipeline: enough
/// in-flight prefetches to hide a DRAM miss, small enough to stay in L1.
inline constexpr int64_t kProbeBatchRows = 32;
/// Rows per batched Table::HashRows call in the KeyIndex / SetUnionInto /
/// DeleteMatching / SelectNewAtomRows pipelines.
inline constexpr int64_t kHashBatchRows = 64;
/// Rows per batched TargetSegments hashing chunk in Distribute /
/// placement validation.
inline constexpr int64_t kSegmentHashChunkRows = 4096;
/// Rows per batched hashing chunk when building a KeyIndex.
inline constexpr int64_t kIndexBuildChunkRows = 4096;

/// \brief Runtime execution knobs, replacing the per-file constants that
/// PR 5 hard-coded (kParallelMinRows / kHashChunkRows / morsel size /
/// MppContext::kSerialFanoutRowCutoff / the build-partition cap).
///
/// One struct, two sources over the compiled defaults below, in priority
/// order:
///   1. explicit SetTunables() / SetTunableFromString() (CLI flags),
///   2. PROBKB_* environment overrides (ApplyTunablesEnv).
/// Both sources validate through one per-knob table (minimum value,
/// power-of-two clamp), so a value one path rejects the other rejects too.
///
/// Every knob only moves work between the serial and parallel paths of an
/// operator; both paths are bit-identical by construction (DESIGN.md
/// "Threading model"), so no setting can change any output.
struct Tunables {
  /// Input-row floor below which an operator skips the thread pool
  /// entirely (probe morsels, build partitioning, parallel batch hashing):
  /// dispatch overhead beats the win on tiny deltas.
  int64_t parallel_min_rows = 8192;
  /// Rows per parallel build-side hashing chunk in HashJoin.
  int64_t hash_chunk_rows = 4096;
  /// Rows per probe morsel in the morsel-parallel HashJoin probe.
  int64_t morsel_rows = 2048;
  /// Total-input-rows floor below which per-segment MPP fan-out runs
  /// serially even with a pool attached. Dispatching N segment tasks for a
  /// few hundred rows costs more than the tasks themselves — the
  /// fig6c_mpp_views workload regressed below 1.0x speedup at 2-8 threads
  /// purely on fan-out overhead over tiny per-iteration deltas.
  int64_t serial_fanout_row_cutoff = 8192;
  /// Cap on hash-partitioned build parts in HashJoin (power of two).
  int64_t max_build_partitions = 16;
  /// Transient-memory budget for out-of-core execution, in bytes; 0
  /// disables spilling (pure in-memory). Covers the working set the
  /// operators allocate (pinned spill partitions, partition write
  /// buffers), not resident base tables. Unlike the knobs above this one
  /// changes *where* bytes live, never what any operator outputs: the
  /// grace-hash path it enables is bit-identical to in-memory execution.
  int64_t mem_budget_bytes = 0;
  /// Spill partition page size: a partition's write buffer flushes to its
  /// page file when it grows past this many bytes.
  int64_t spill_page_bytes = 1 << 20;
  /// Build-side row floor below which a grace partition pair joins in
  /// memory instead of recursing another partitioning level: tiny pairs
  /// cannot meaningfully split (and repartitioning them costs more than
  /// the index they avoid).
  int64_t grace_split_min_rows = 4096;

  bool operator==(const Tunables&) const = default;

  std::string ToString() const;
};

/// \brief Process-wide tunables. GetTunables returns a snapshot copy;
/// SetTunables replaces the whole struct. Set before execution starts
/// (CLI parse / bench setup) — operators read a snapshot per Execute call.
Tunables GetTunables();
void SetTunables(const Tunables& t);

/// \brief Applies PROBKB_PARALLEL_MIN_ROWS / PROBKB_HASH_CHUNK_ROWS /
/// PROBKB_MORSEL_ROWS / PROBKB_SERIAL_FANOUT_CUTOFF /
/// PROBKB_MAX_BUILD_PARTITIONS / PROBKB_MEM_BUDGET /
/// PROBKB_SPILL_PAGE_BYTES / PROBKB_GRACE_SPLIT_MIN_ROWS on top of
/// `base`. Garbage or below-minimum values warn and keep the base value
/// (the ResolveThreads contract). PROBKB_MEM_BUDGET and
/// PROBKB_SPILL_PAGE_BYTES accept K/M/G suffixes ("512M").
Tunables ApplyTunablesEnv(Tunables base);

/// \brief Sets the execution knob `name` (parallel_min_rows,
/// hash_chunk_rows, morsel_rows, serial_fanout_row_cutoff or
/// max_build_partitions) from `text` with the validation ApplyTunablesEnv
/// applies to the matching variable. InvalidArgument on an unknown name,
/// malformed text or a value below the knob's minimum; `*t` is untouched
/// then.
Status SetTunableFromString(Tunables* t, std::string_view name,
                            std::string_view text);

}  // namespace probkb

#endif  // PROBKB_ENGINE_TUNABLES_H_
