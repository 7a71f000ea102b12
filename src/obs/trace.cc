#include "obs/trace.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace probkb {

namespace {

/// splitmix64 finalizer: the bijective mixer all trace/span identity is
/// derived through. Deterministic, seedable, and collision-resistant
/// enough that derived worker span ids do not land on supervisor ids.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashKind(const char* kind) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over the kind tag
  for (const char* p = kind; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint64_t>(*p)) * 0x100000001B3ULL;
  }
  return h;
}

void CopyTag(char* dst, size_t dst_size, const char* src) {
  const size_t n = std::min(std::strlen(src), dst_size - 1);
  std::memcpy(dst, src, n);
  dst[n] = '\0';
}

/// Per-thread open-span stack. Keyed on the owning tracer's never-reused
/// id (a thread traces into one tracer at a time; switching tracers
/// abandons the old stack, which only tests with private tracers do).
struct OpenEntry {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  int64_t start_us = 0;
};
struct ThreadStack {
  uint64_t owner_id = 0;
  std::vector<OpenEntry> stack;
  uint64_t span_ordinal = 0;  // ordinal within the current trace
};
ThreadStack& LocalStack() {
  thread_local ThreadStack state;
  return state;
}

}  // namespace

Tracer::Tracer(uint64_t seed, size_t capacity)
    : seed_(seed), base_us_(NowUs()), rings_(capacity) {}

Tracer* Tracer::Global() {
  // Leaked: reader threads may outlive main() teardown order.
  static Tracer* tracer = new Tracer();
  return tracer;
}

int64_t Tracer::NowUs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

Tracer::Context Tracer::current_context() const {
  const ThreadStack& ts = LocalStack();
  if (ts.owner_id != rings_.id() || ts.stack.empty()) return {};
  return {ts.stack.back().trace_id, ts.stack.back().span_id};
}

Tracer::OpenSpan Tracer::PushSpan(int64_t start_us) {
  ThreadStack& ts = LocalStack();
  if (ts.owner_id != rings_.id()) {
    ts.owner_id = rings_.id();
    ts.stack.clear();
    ts.span_ordinal = 0;
  }
  OpenSpan open;
  if (ts.stack.empty()) {
    const uint64_t ordinal =
        next_trace_.fetch_add(1, std::memory_order_relaxed);
    open.trace_id = Mix64(seed_ ^ Mix64(ordinal + 1));
    if (open.trace_id == 0) open.trace_id = 1;
    open.parent_id = 0;
    ts.span_ordinal = 0;
  } else {
    open.trace_id = ts.stack.back().trace_id;
    open.parent_id = ts.stack.back().span_id;
  }
  open.span_id = Mix64(open.trace_id ^ Mix64(++ts.span_ordinal));
  if (open.span_id == 0) open.span_id = 1;
  ts.stack.push_back({open.trace_id, open.span_id, start_us});
  return open;
}

void Tracer::PopSpan(const OpenSpan& span, const char* name,
                     const char* category, int64_t a, int64_t b, int64_t c,
                     int64_t start_us, int64_t dur_us) {
  ThreadStack& ts = LocalStack();
  if (ts.owner_id == rings_.id()) {
    // RAII spans unwind LIFO; tolerate an out-of-order End() by popping
    // down to (and including) the closing span.
    while (!ts.stack.empty()) {
      const bool match = ts.stack.back().span_id == span.span_id;
      ts.stack.pop_back();
      if (match) break;
    }
  }
  if (!enabled_.load(std::memory_order_relaxed)) return;
  SpanRecord record;
  record.trace_id = span.trace_id;
  record.span_id = span.span_id;
  record.parent_id = span.parent_id;
  record.a = a;
  record.b = b;
  record.c = c;
  record.segment = -1;
  record.start_us = start_us < 0 ? 0 : start_us;
  record.dur_us = dur_us < 0 ? 0 : dur_us;
  CopyTag(record.name, sizeof(record.name), name);
  CopyTag(record.category, sizeof(record.category), category);
  rings_.Append(record);
}

void Tracer::RecordCompleted(const char* name, const char* category,
                             int64_t a, int64_t b, int64_t c,
                             int64_t dur_us) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const int64_t end_us = NowUs() - base_us_;
  int64_t start_us = end_us - std::max<int64_t>(dur_us, 0);
  // Clamp into the parent: the work's own timer started after the parent
  // opened, but the two clocks round to microseconds independently.
  const ThreadStack& ts = LocalStack();
  if (ts.owner_id == rings_.id() && !ts.stack.empty()) {
    start_us = std::max(start_us, ts.stack.back().start_us);
  }
  PopSpan(PushSpan(start_us), name, category, a, b, c, start_us,
          end_us - start_us);
}

void Tracer::RecordWorkerSpan(uint64_t trace_id, uint64_t parent_id,
                              int64_t motion, int32_t segment,
                              const char* kind, int64_t bytes,
                              int64_t start_abs_us, int64_t dur_us) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (trace_id == 0) return;  // untraced frame (heartbeat ping)
  SpanRecord record;
  record.trace_id = trace_id;
  record.parent_id = parent_id;
  // Identity from the work's coordinates, not from when it was harvested:
  // a respawned worker re-handling the same (motion, segment) exchange
  // reproduces the same span id, which CollectSpans() dedupes.
  uint64_t key = Mix64(trace_id ^ Mix64(parent_id));
  key = Mix64(key ^ Mix64(static_cast<uint64_t>(motion + 1)));
  key = Mix64(key ^ Mix64(static_cast<uint64_t>(segment + 1)));
  key = Mix64(key ^ HashKind(kind));
  record.span_id = key == 0 ? 1 : key;
  record.a = motion;
  record.b = segment;
  record.c = bytes;
  record.segment = segment;
  record.start_us = start_abs_us - base_us_;
  record.dur_us = dur_us < 0 ? 0 : dur_us;
  CopyTag(record.name, sizeof(record.name), kind);
  CopyTag(record.category, sizeof(record.category), "worker");
  rings_.Append(record);
}

void Tracer::Reset() {
  rings_.Reset();
  next_trace_.store(0, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::CollectSpans() const {
  const std::vector<SpanRecord> merged = rings_.Merged();
  // Dedup by (trace, span): first occurrence wins. Only derived worker
  // span ids can repeat (respawn re-handling), and their payloads match.
  std::unordered_set<uint64_t> seen;
  std::vector<SpanRecord> unique;
  unique.reserve(merged.size());
  for (const SpanRecord& record : merged) {
    const uint64_t key = Mix64(record.trace_id) ^ record.span_id;
    if (!seen.insert(key).second) continue;
    unique.push_back(record);
  }
  // Stitch: clamp worker span intervals into their parent's interval.
  // Worker clocks are the same CLOCK_MONOTONIC, but the parent's End()
  // runs after the ack is read, and scheduling skew can leave a worker
  // stamp a hair outside; the tree must still nest.
  std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> interval;
  for (const SpanRecord& record : unique) {
    if (std::strcmp(record.category, "worker") != 0) {
      interval.emplace(record.span_id,
                       std::make_pair(record.start_us,
                                      record.start_us + record.dur_us));
    }
  }
  for (SpanRecord& record : unique) {
    if (std::strcmp(record.category, "worker") != 0) continue;
    const auto it = interval.find(record.parent_id);
    if (it == interval.end()) continue;  // orphan; the validator flags it
    const int64_t lo = it->second.first;
    const int64_t hi = it->second.second;
    int64_t start = std::max(record.start_us, lo);
    int64_t end = std::min(record.start_us + record.dur_us, hi);
    start = std::min(start, hi);
    if (end < start) end = start;
    record.start_us = start;
    record.dur_us = end - start;
  }
  return unique;
}

std::string Tracer::CanonicalText() const {
  const std::vector<SpanRecord> spans = CollectSpans();
  std::string out;
  // Lines are renumbered after filtering: worker spans consume global
  // sequence numbers in process mode, so raw seqs would differ from the
  // simulator run even when the supervisor spans are identical.
  size_t line = 0;
  for (const SpanRecord& record : spans) {
    if (std::strcmp(record.category, "worker") == 0) continue;
    out += StrFormat(
        "#%06zu trace=%016llx span=%016llx parent=%016llx %-20s cat=%-10s "
        "a=%lld b=%lld c=%lld\n",
        line++, static_cast<unsigned long long>(record.trace_id),
        static_cast<unsigned long long>(record.span_id),
        static_cast<unsigned long long>(record.parent_id), record.name,
        record.category, static_cast<long long>(record.a),
        static_cast<long long>(record.b), static_cast<long long>(record.c));
  }
  return out;
}

std::string Tracer::DumpJsonl() const {
  const std::vector<SpanRecord> spans = CollectSpans();
  std::string out;
  for (const SpanRecord& record : spans) {
    out += StrFormat(
        "{\"seq\": %llu, \"trace_id\": \"%016llx\", \"span_id\": "
        "\"%016llx\", \"parent_id\": \"%016llx\", \"name\": \"%s\", "
        "\"category\": \"%s\", \"a\": %lld, \"b\": %lld, \"c\": %lld, "
        "\"segment\": %d, \"start_us\": %lld, \"dur_us\": %lld}\n",
        static_cast<unsigned long long>(record.seq),
        static_cast<unsigned long long>(record.trace_id),
        static_cast<unsigned long long>(record.span_id),
        static_cast<unsigned long long>(record.parent_id),
        JsonEscape(record.name).c_str(), JsonEscape(record.category).c_str(),
        static_cast<long long>(record.a), static_cast<long long>(record.b),
        static_cast<long long>(record.c), record.segment,
        static_cast<long long>(record.start_us),
        static_cast<long long>(record.dur_us));
  }
  return out;
}

std::string Tracer::DumpChromeJson() const {
  const std::vector<SpanRecord> spans = CollectSpans();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& record : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    const int64_t ts = record.start_us < 0 ? 0 : record.start_us;
    out += StrFormat(
        "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": "
        "%lld, \"dur\": %lld, \"pid\": 0, \"tid\": %d, \"args\": "
        "{\"trace_id\": \"%016llx\", \"span_id\": \"%016llx\", "
        "\"parent_id\": \"%016llx\", \"a\": %lld, \"b\": %lld, \"c\": "
        "%lld}}",
        JsonEscape(record.name).c_str(), JsonEscape(record.category).c_str(),
        static_cast<long long>(ts),
        static_cast<long long>(record.dur_us),
        record.segment >= 0 ? record.segment + 1 : 0,
        static_cast<unsigned long long>(record.trace_id),
        static_cast<unsigned long long>(record.span_id),
        static_cast<unsigned long long>(record.parent_id),
        static_cast<long long>(record.a), static_cast<long long>(record.b),
        static_cast<long long>(record.c));
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  return WriteTextFile(path, DumpJsonl(), "trace");
}

TraceSpan::TraceSpan(Tracer* tracer, const char* name, const char* category,
                     int64_t a, int64_t b, int64_t c)
    : tracer_(tracer),
      name_(name),
      category_(category),
      a_(a),
      b_(b),
      c_(c) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  start_us_ = Tracer::NowUs();
  open_ = tracer_->PushSpan(start_us_ - tracer_->base_us());
  active_ = true;
}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::End() {
  if (!active_) return;
  active_ = false;
  const int64_t end_us = Tracer::NowUs();
  tracer_->PopSpan(open_, name_, category_, a_, b_, c_,
                   start_us_ - tracer_->base_us(), end_us - start_us_);
}

}  // namespace probkb
