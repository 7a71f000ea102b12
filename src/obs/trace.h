#ifndef PROBKB_OBS_TRACE_H_
#define PROBKB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.h"
#include "util/status.h"

namespace probkb {

/// \brief One completed span. Identity and payload fields are exclusively
/// *deterministic* quantities (seeded ids, motion indices, row counts —
/// never wall-clock or thread ids), so the canonical dump of a
/// deterministic run is byte-identical at any thread count and across the
/// simulator/process runtimes. Timing lives in `start_us`/`dur_us`
/// (CLOCK_MONOTONIC microseconds relative to the tracer's base) and is
/// exported to Chrome trace / JSONL but excluded from CanonicalText().
struct SpanRecord {
  uint64_t seq = 0;        // global issue order; the merge key
  uint64_t trace_id = 0;   // one per root span (query / iteration)
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = trace root
  int64_t a = 0;           // span-specific deterministic payloads
  int64_t b = 0;
  int64_t c = 0;
  int32_t segment = -1;    // owning segment; -1 = supervisor/reader thread
  int64_t start_us = 0;
  int64_t dur_us = 0;
  char name[32] = {0};
  char category[16] = {0};
};

/// \brief Distributed tracer: the program's one span substrate and its only
/// Chrome-trace exporter. Spans live on the per-thread sequence-stamped
/// rings the flight recorder also uses (obs/ring.h); identity is
/// deterministic.
///
/// Identity is derived, never drawn from clocks or PIDs: a trace id mixes
/// the tracer seed with a global trace ordinal, a span id mixes the trace
/// id with the span's ordinal within its trace, and a worker span id mixes
/// the parent supervisor span with (motion, segment, kind). The worker
/// derivation is what makes harvest idempotent — a killed-and-respawned
/// worker that re-handles the same exchange journals a span with the SAME
/// id, and CollectSpans() deduplicates by (trace_id, span_id), so chaos
/// reruns cannot double-count work in the stitched tree.
///
/// Span nesting is tracked with a thread-local stack: a TraceSpan opened
/// while another is active becomes its child; opened on an empty stack it
/// starts a new trace and becomes the root. Worker spans arrive by journal
/// harvest (ProcessRuntime) already carrying the parent id the supervisor
/// stamped into the wire frame.
///
/// Disabled by default (unlike the flight recorder): tracing is opt-in via
/// `--trace`/`--trace_chrome`, and a disabled tracer costs one relaxed
/// load per span site.
class Tracer {
 public:
  // Capacity is per thread; serve query trees are ~6 spans each, so this
  // keeps the last ~2700 queries per reader thread.
  static constexpr size_t kDefaultCapacity = 16384;
  static constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ULL;

  explicit Tracer(uint64_t seed = kDefaultSeed,
                  size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief The process-wide tracer instrumentation sites report into.
  static Tracer* Global();

  /// \brief CLOCK_MONOTONIC now, in microseconds. Monotonic is system-wide
  /// on Linux, so timestamps taken inside forked workers are directly
  /// comparable with the supervisor's when spans are stitched.
  static int64_t NowUs();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief The monotonic instant span timestamps are relative to.
  int64_t base_us() const { return base_us_; }

  /// \brief The calling thread's innermost open span, for propagation into
  /// wire frames. {0, 0} when no span is open (or tracing is off).
  struct Context {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
  };
  Context current_context() const;

  /// \brief Records a span harvested from a worker journal, parented to
  /// the supervisor span whose ids rode the wire frame. `start_abs_us` is
  /// the worker's CLOCK_MONOTONIC stamp; it is rebased against base_us().
  /// The span id is derived from (trace, parent, motion, segment, kind),
  /// so re-harvest after a respawn dedupes instead of duplicating.
  void RecordWorkerSpan(uint64_t trace_id, uint64_t parent_id, int64_t motion,
                        int32_t segment, const char* kind, int64_t bytes,
                        int64_t start_abs_us, int64_t dur_us);

  /// \brief Records a span that ended now after `dur_us`, as a child of
  /// the calling thread's innermost open span (a trace root when none is
  /// open). For work timed by its own clock and reported on completion —
  /// operators closing in post-order under their statement span.
  void RecordCompleted(const char* name, const char* category, int64_t a,
                       int64_t b, int64_t c, int64_t dur_us);

  /// \brief Drops all spans and restarts sequence/trace numbering. Call
  /// only while no span is open on any thread (between runs).
  void Reset();

  /// \brief All surviving spans, sorted by issue order, deduplicated by
  /// (trace_id, span_id), with worker span intervals clamped into their
  /// parent's interval so the stitched tree nests properly.
  std::vector<SpanRecord> CollectSpans() const;

  /// \brief Spans overwritten by ring wrap-around (lost to the dump).
  int64_t dropped_spans() const { return rings_.dropped(); }

  /// \brief Deterministic-fields-only dump: ids, names, payloads — no
  /// timing, no worker spans (those are process-runtime physical evidence
  /// with no simulator counterpart). Byte-identical across thread counts
  /// and sim-vs-process for a deterministic run.
  std::string CanonicalText() const;

  /// \brief Every span (workers and timing included), one JSON object per
  /// line. Input format of the check_stats_json.py span-tree validator.
  std::string DumpJsonl() const;

  /// \brief Chrome trace ("X" complete events): supervisor spans on tid 0,
  /// worker spans on tid segment+1; ids and payloads in args.
  std::string DumpChromeJson() const;

  Status WriteJsonl(const std::string& path) const;

 private:
  friend class TraceSpan;

  /// What TraceSpan needs to close a span: its identity plus the parent
  /// captured at open time.
  struct OpenSpan {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;
  };

  /// Opens a span that started at `start_us` (relative to base_us()).
  OpenSpan PushSpan(int64_t start_us);
  void PopSpan(const OpenSpan& span, const char* name, const char* category,
               int64_t a, int64_t b, int64_t c, int64_t start_us,
               int64_t dur_us);

  const uint64_t seed_;
  const int64_t base_us_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_trace_{0};
  /// The thread-local open-span stack keys on rings_.id().
  SeqRings<SpanRecord> rings_;
};

/// \brief RAII span. Opens on construction (no-op when tracing is off),
/// closes on End() or destruction. Payload values can be filled in as the
/// work completes:
///
///   TraceSpan span(Tracer::Global(), "local_ground", "serve");
///   ... work ...
///   span.set_values(atoms, depth, truncated);
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, const char* category,
            int64_t a = 0, int64_t b = 0, int64_t c = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_values(int64_t a, int64_t b, int64_t c) {
    a_ = a;
    b_ = b;
    c_ = c;
  }

  /// \brief Closes the span now (idempotent).
  void End();

  bool active() const { return active_; }
  uint64_t trace_id() const { return open_.trace_id; }
  uint64_t span_id() const { return open_.span_id; }

 private:
  Tracer* tracer_;
  Tracer::OpenSpan open_;
  const char* name_;
  const char* category_;
  int64_t a_;
  int64_t b_;
  int64_t c_;
  int64_t start_us_ = 0;
  bool active_ = false;
};

}  // namespace probkb

#endif  // PROBKB_OBS_TRACE_H_
