#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstring>

#include "util/strings.h"

namespace probkb {

const char* FrEventName(FrEvent event) {
  switch (event) {
    case FrEvent::kMotionBegin:
      return "motion_begin";
    case FrEvent::kFaultInjected:
      return "fault_injected";
    case FrEvent::kRetryAttempt:
      return "retry_attempt";
    case FrEvent::kMotionRecovered:
      return "motion_recovered";
    case FrEvent::kMotionFailed:
      return "motion_failed";
    case FrEvent::kCheckpointCommit:
      return "checkpoint_commit";
    case FrEvent::kIterationBoundary:
      return "iteration_boundary";
    case FrEvent::kGibbsMilestone:
      return "gibbs_milestone";
    case FrEvent::kWorkerSpawn:
      return "worker_spawn";
    case FrEvent::kWorkerHeartbeat:
      return "worker_heartbeat";
    case FrEvent::kWorkerKilled:
      return "worker_killed";
    case FrEvent::kWorkerRespawn:
      return "worker_respawn";
    case FrEvent::kFrameRetry:
      return "frame_retry";
    case FrEvent::kWorkerPostMortem:
      return "worker_post_mortem";
  }
  return "?";
}

std::string FrRecord::ToText() const {
  std::string line = StrFormat("#%06llu %-18s a=%lld b=%lld c=%lld",
                               static_cast<unsigned long long>(seq),
                               FrEventName(event), static_cast<long long>(a),
                               static_cast<long long>(b),
                               static_cast<long long>(c));
  if (detail[0] != '\0') {
    line += " ";
    line += detail;
  }
  return line;
}

FlightRecorder* FlightRecorder::Global() {
  // Leaked: worker threads may outlive main() teardown order.
  static FlightRecorder* recorder = new FlightRecorder();
  return recorder;
}

void FlightRecorder::Record(FrEvent event, std::string_view detail, int64_t a,
                            int64_t b, int64_t c) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  FrRecord record;
  record.event = event;
  record.a = a;
  record.b = b;
  record.c = c;
  const size_t n = std::min(detail.size(), sizeof(record.detail) - 1);
  std::memcpy(record.detail, detail.data(), n);
  rings_.Append(record);
}

std::vector<FrRecord> FlightRecorder::MergedTimeline(size_t last_n) const {
  std::vector<FrRecord> merged = rings_.Merged();
  if (last_n > 0 && merged.size() > last_n) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<ptrdiff_t>(last_n));
  }
  return merged;
}

std::string FlightRecorder::DumpText(size_t last_n) const {
  const std::vector<FrRecord> timeline = MergedTimeline(last_n);
  std::string out = "=== flight recorder";
  out += StrFormat(" (%zu events", timeline.size());
  const int64_t dropped = dropped_events();
  if (dropped > 0) {
    out += StrFormat(", %lld older dropped", static_cast<long long>(dropped));
  }
  out += ") ===\n";
  for (const FrRecord& record : timeline) {
    out += record.ToText();
    out += '\n';
  }
  return out;
}

std::string FlightRecorder::DumpJson(size_t last_n) const {
  const std::vector<FrRecord> timeline = MergedTimeline(last_n);
  std::string out = "{\n";
  out += StrFormat("  \"dropped_events\": %lld,\n",
                   static_cast<long long>(dropped_events()));
  out += "  \"events\": [";
  bool first = true;
  for (const FrRecord& record : timeline) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "    {\"seq\": %llu, \"event\": \"%s\", \"a\": %lld, \"b\": %lld, "
        "\"c\": %lld, \"detail\": \"%s\"}",
        static_cast<unsigned long long>(record.seq), FrEventName(record.event),
        static_cast<long long>(record.a), static_cast<long long>(record.b),
        static_cast<long long>(record.c), JsonEscape(record.detail).c_str());
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace probkb
