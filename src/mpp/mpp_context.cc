#include "mpp/mpp_context.h"

#include <algorithm>
#include <map>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "util/timer.h"

namespace probkb {

namespace {

const char* KindName(MppStep::Kind kind) {
  switch (kind) {
    case MppStep::Kind::kCompute:
      return "compute";
    case MppStep::Kind::kRedistribute:
      return "redistribute";
    case MppStep::Kind::kBroadcast:
      return "broadcast";
    case MppStep::Kind::kGather:
      return "gather";
    case MppStep::Kind::kRecovery:
      return "recovery";
  }
  return "?";
}

}  // namespace

Status MppContext::CheckDeadline() const {
  if (deadline_seconds_ > 0 &&
      cost_.simulated_seconds() > deadline_seconds_) {
    return Status::DeadlineExceeded(
        StrFormat("simulated time %.3fs exceeded the %.3fs deadline",
                  cost_.simulated_seconds(), deadline_seconds_));
  }
  return Status::OK();
}

Status MppContext::BeginMotion(const std::string& label,
                               int64_t* motion_index) {
  *motion_index = next_motion_index_++;
  FlightRecorder::Global()->Record(FrEvent::kMotionBegin, label,
                                   *motion_index);
  // Supervisor upkeep rides the motion clock (not wall time), so heartbeat
  // events land at deterministic points of the motion sequence.
  if (runtime_ != nullptr) runtime_->HeartbeatTick(*motion_index);
  if (injector_ != nullptr) {
    PROBKB_RETURN_NOT_OK(injector_->OperatorFault(*motion_index, label));
  }
  return CheckDeadline();
}

std::vector<int> MppContext::ApplyPhysicalFaults(
    const std::vector<FaultEvent>& faults) {
  std::vector<int> corrupt(static_cast<size_t>(num_segments_), 0);
  if (runtime_ == nullptr) return corrupt;
  for (const FaultEvent& f : faults) {
    if (IsSegmentLoss(f.kind)) {
      // The victim's worker really dies; the exchange loop detects the
      // broken channel, harvests the journal, and respawns it.
      runtime_->KillWorker(f.segment);
    } else if (f.kind == FaultKind::kCorruptFrame) {
      if (f.target >= 0 && f.target < num_segments_) {
        ++corrupt[static_cast<size_t>(f.target)];
      }
    }
  }
  return corrupt;
}

Status MppContext::RecoverMotion(
    int64_t motion_index, const std::string& label,
    const std::vector<FaultEvent>& faults,
    const std::function<int64_t(const FaultEvent&)>& resend_tuples) {
  if (faults.empty()) return Status::OK();
  FaultStats* stats = injector_->mutable_stats();

  double backoff_seconds = 0.0;
  int64_t reshipped = 0;
  int64_t recovered = 0;  // shadow of stats->recovered_faults, this motion

  // Batch-level faults recover in one exchange with the (alive) sender:
  // a dropped batch is retransmitted from the sender's materialized
  // output, a duplicated batch is detected against the sender's declared
  // row count and the extra copy discarded. Applies to first-try faults
  // and to batch faults scheduled on retry attempts alike, so every
  // injected fault is either recovered or charged as unrecovered.
  auto absorb_batch_fault = [&](const FaultEvent& f) {
    switch (f.kind) {
      case FaultKind::kDropBatch:
      case FaultKind::kCorruptFrame:
        // A corrupted frame is detected by the receiver's checksum and
        // NACKed, costing the same one-batch retransmission as a drop.
        backoff_seconds += retry_.BackoffSeconds(1);
        reshipped += resend_tuples(f);
        ++stats->retries;
        ++stats->recovered_faults;
        ++recovered;
        return true;
      case FaultKind::kDuplicateBatch:
        // The duplicate burned interconnect bandwidth before detection.
        reshipped += resend_tuples(f);
        ++stats->recovered_faults;
        ++recovered;
        return true;
      default:
        return false;
    }
  };

  std::vector<FaultEvent> pending;  // segment-loss faults, retried below
  for (const FaultEvent& f : faults) {
    if (!absorb_batch_fault(f) && IsSegmentLoss(f.kind)) {
      pending.push_back(f);
    }
  }

  // Segment failures: re-run each victim's partition from the surviving
  // materialized-view inputs, under capped exponential backoff. A retry
  // can itself be struck (the injector's schedule decides), so this loops
  // until the pending set drains or the attempt budget runs out.
  for (int attempt = 1; !pending.empty(); ++attempt) {
    if (attempt > retry_.max_attempts) {
      ++stats->unrecovered_motions;
      FlightRecorder::Global()->Record(FrEvent::kMotionFailed, label,
                                       motion_index, retry_.max_attempts,
                                       pending.front().segment);
      // Account what recovery burned before giving up.
      MppStep step;
      step.kind = MppStep::Kind::kRecovery;
      step.label = "recovery " + label + " (failed)";
      step.tuples_shipped = reshipped;
      step.seconds = backoff_seconds + MotionSeconds(reshipped);
      cost_.Add(std::move(step));
      stats->backoff_seconds += backoff_seconds;
      stats->tuples_reshipped += reshipped;
      return Status::ResourceExhausted(StrFormat(
          "motion %lld (%s): segment %d still failed after %d attempts",
          static_cast<long long>(motion_index), label.c_str(),
          pending.front().segment, retry_.max_attempts));
    }
    backoff_seconds += retry_.BackoffSeconds(attempt);
    ++stats->retries;
    FlightRecorder::Global()->Record(
        FrEvent::kRetryAttempt, label, motion_index, attempt,
        static_cast<int64_t>(pending.size()));

    std::map<int, FaultEvent> failed_again;
    for (const FaultEvent& f :
         injector_->MotionFaults(motion_index, attempt, num_segments_)) {
      if (!absorb_batch_fault(f) && IsSegmentLoss(f.kind)) {
        failed_again.emplace(f.segment, f);
      }
    }

    std::vector<FaultEvent> still_pending;
    for (const FaultEvent& f : pending) {
      auto it = failed_again.find(f.segment);
      if (it != failed_again.end()) {
        still_pending.push_back(f);
        failed_again.erase(it);
      } else {
        reshipped += resend_tuples(f);
        ++stats->recovered_faults;
        ++recovered;
      }
    }
    // A retry-time segment failure that struck a segment not mid-recovery
    // claims a fresh victim: its contribution is lost too and must be
    // replayed on the next attempt.
    for (const auto& [segment, f] : failed_again) still_pending.push_back(f);
    pending = std::move(still_pending);
  }

  MppStep step;
  step.kind = MppStep::Kind::kRecovery;
  step.label = "recovery " + label;
  step.tuples_shipped = reshipped;
  step.seconds = backoff_seconds + MotionSeconds(reshipped);
  cost_.Add(std::move(step));
  stats->backoff_seconds += backoff_seconds;
  stats->tuples_reshipped += reshipped;
  FlightRecorder::Global()->Record(FrEvent::kMotionRecovered, label,
                                   motion_index, recovered, reshipped);
  return Status::OK();
}

Status MppContext::AccountMotion(
    MppStep::Kind kind, const std::string& label, int64_t tuples_shipped,
    const std::function<int64_t(const FaultEvent&)>& resend_tuples,
    const Table* payload, std::span<const int> payload_targets,
    std::vector<TablePtr>* delivered) {
  const Timer wall;
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), KindName(kind),
                        motion_index, tuples_shipped, 0);

  // Per-target slice sizes, computed up front so the sim and process
  // branches emit byte-identical ship spans (one per target, same counts).
  std::vector<int64_t> target_rows;
  if (payload != nullptr && tuples_shipped > 0 &&
      payload_targets.size() == static_cast<size_t>(payload->NumRows())) {
    target_rows.assign(static_cast<size_t>(num_segments_), 0);
    for (int t : payload_targets) {
      if (t >= 0 && t < num_segments_) ++target_rows[static_cast<size_t>(t)];
    }
  }

  // One consultation per (motion, attempt 0): the list drives both the
  // physical faults below and the modelled recovery accounting, so the
  // injector's random stream is identical in sim and process mode.
  std::vector<FaultEvent> faults;
  if (injector_ != nullptr && tuples_shipped > 0) {
    faults = injector_->MotionFaults(motion_index, 0, num_segments_);
  }

  if (runtime_ != nullptr && payload != nullptr && tuples_shipped > 0) {
    std::vector<int> corrupt = ApplyPhysicalFaults(faults);
    PROBKB_DCHECK(payload_targets.size() ==
                  static_cast<size_t>(payload->NumRows()));
    delivered->assign(static_cast<size_t>(num_segments_), nullptr);
    for (int t = 0; t < num_segments_; ++t) {
      // Each target's slice keeps the payload's row order, so appending
      // the echoed slice reproduces the caller's local append order.
      Table slice(payload->schema());
      for (int64_t r = 0; r < payload->NumRows(); ++r) {
        if (payload_targets[static_cast<size_t>(r)] == t) {
          slice.AppendRows(*payload, r, r + 1);
        }
      }
      // The ship span is the parent the worker's journaled span stitches
      // under (its ids ride the exchange frames).
      TraceSpan ship(Tracer::Global(), "ship", "exchange", motion_index, t,
                     slice.NumRows());
      Result<TablePtr> echoed = runtime_->Exchange(
          t, motion_index, slice, label, corrupt[static_cast<size_t>(t)]);
      PROBKB_RETURN_NOT_OK(echoed.status());
      (*delivered)[static_cast<size_t>(t)] = echoed.MoveValueOrDie();
    }
  } else if (runtime_ == nullptr && !target_rows.empty()) {
    // Simulator counterpart of the physical exchange loop above: same
    // spans, same deterministic payloads, zero wire traffic.
    for (int t = 0; t < num_segments_; ++t) {
      TraceSpan ship(Tracer::Global(), "ship", "exchange", motion_index, t,
                     target_rows[static_cast<size_t>(t)]);
    }
  }

  if (injector_ != nullptr && tuples_shipped > 0) {
    PROBKB_RETURN_NOT_OK(
        RecoverMotion(motion_index, label, faults, resend_tuples));
  }

  MppStep step;
  step.kind = kind;
  step.label = label;
  step.tuples_shipped = tuples_shipped;
  step.seconds = kind == MppStep::Kind::kBroadcast
                     ? BroadcastSeconds(tuples_shipped)
                     : MotionSeconds(tuples_shipped);
  const double modelled = step.seconds;
  cost_.Add(std::move(step));
  if (obs_ != nullptr) {
    // Caller-performed movement: the context never sees the schema or the
    // per-segment placement, so bytes and skew stay unreported here.
    obs_->RecordMotion(label, KindName(kind), tuples_shipped, 0,
                       wall.Seconds(), {}, modelled);
  }
  return Status::OK();
}

Result<DistributedTablePtr> MppContext::Redistribute(
    const DistributedTable& input, std::vector<int> key_cols,
    std::string name) {
  for (int c : key_cols) {
    if (c < 0 || c >= input.schema().num_fields()) {
      return Status::InvalidArgument(
          StrFormat("redistribute key column %d out of range", c));
    }
  }
  const Timer wall;
  const std::string label =
      input.name().empty() ? "redistribute" : input.name();
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), "redistribute",
                        motion_index);

  const int n = num_segments_;
  std::vector<TablePtr> segments;
  segments.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) segments.push_back(Table::Make(input.schema()));

  int64_t shipped = 0;
  if (input.distribution().is_replicated()) {
    // Each segment keeps only the slice of its copy that hashes to it; no
    // interconnect traffic (and hence no motion faults) is involved.
    const Table& src = *input.segment(0);
    std::vector<int> targets(static_cast<size_t>(src.NumRows()));
    DistributedTable::TargetSegments(src, key_cols, n, 0, src.NumRows(),
                                     targets.data());
    for (int64_t r = 0; r < src.NumRows(); ++r) {
      segments[static_cast<size_t>(targets[static_cast<size_t>(r)])]
          ->AppendRows(src, r, r + 1);
    }
  } else {
    // Per-sender batch counts: sent[s][t] tuples cross from segment s to
    // segment t. They double as the recovery bookkeeping — a victim's
    // whole contribution (segment failure) or one batch (drop/duplicate)
    // can be replayed from the surviving input partition.
    std::vector<std::vector<int64_t>> sent(
        static_cast<size_t>(n), std::vector<int64_t>(static_cast<size_t>(n)));
    // Phase 1: route. Each sender's rows hash to their targets; senders
    // are independent, so the pool fans them out.
    std::vector<std::vector<int>> targets(static_cast<size_t>(n));
    auto route_sender = [&](int s) {
      const Table& src = *input.segment(s);
      std::vector<int>& tgt = targets[static_cast<size_t>(s)];
      tgt.resize(static_cast<size_t>(src.NumRows()));
      if (src.NumRows() > 0) {
        DistributedTable::TargetSegments(src, key_cols, n, 0, src.NumRows(),
                                         tgt.data());
      }
      std::vector<int64_t>& row_sent = sent[static_cast<size_t>(s)];
      for (int64_t r = 0; r < src.NumRows(); ++r) {
        const int target = tgt[static_cast<size_t>(r)];
        if (target != s) ++row_sent[static_cast<size_t>(target)];
      }
    };
    // Phase 2: assemble. Each target segment scans the senders in order
    // and appends its rows; targets write disjoint output tables, and the
    // sender-major scan keeps assembly canonical — recovery recomputes a
    // victim's rows into exactly these positions, so a recovered (or
    // threaded) run is bit-identical to a serial fault-free one.
    auto fill_target = [&](int t) {
      Table* dst = segments[static_cast<size_t>(t)].get();
      int64_t expected = 0;
      for (int s = 0; s < n; ++s) {
        expected += sent[static_cast<size_t>(s)][static_cast<size_t>(t)];
      }
      expected += input.segment(t)->NumRows();  // upper bound: local rows
      dst->ReserveRows(expected);
      for (int s = 0; s < n; ++s) {
        const Table& src = *input.segment(s);
        const std::vector<int>& tgt = targets[static_cast<size_t>(s)];
        for (int64_t r = 0; r < src.NumRows(); ++r) {
          if (tgt[static_cast<size_t>(r)] == t) dst->AppendRows(src, r, r + 1);
        }
      }
    };
    const bool physical = runtime_ != nullptr;
    if (!physical && pool_ != nullptr && pool_->num_threads() > 1 && n > 1 &&
        input.PhysicalRows() >= SerialFanoutRowCutoff()) {
      pool_->ParallelFor(n, 1, [&](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) {
          route_sender(static_cast<int>(s));
        }
      });
      pool_->ParallelFor(n, 1, [&](int64_t begin, int64_t end) {
        for (int64_t t = begin; t < end; ++t) {
          fill_target(static_cast<int>(t));
        }
      });
    } else if (!physical) {
      for (int s = 0; s < n; ++s) route_sender(s);
      for (int t = 0; t < n; ++t) fill_target(t);
    } else {
      // Process mode: route on the (single-threaded) supervisor, assemble
      // from echoed frames below.
      for (int s = 0; s < n; ++s) route_sender(s);
    }
    for (int s = 0; s < n; ++s) {
      for (int64_t batch : sent[static_cast<size_t>(s)]) shipped += batch;
    }
    // Simulated ship spans mirror the physical exchange loop below: one
    // per target, c = the cross-segment rows bound for it, so the
    // canonical span dump is identical across runtimes.
    if (!physical && shipped > 0) {
      for (int t = 0; t < n; ++t) {
        int64_t cross = 0;
        for (int s = 0; s < n; ++s) {
          if (s != t) cross += sent[static_cast<size_t>(s)][
              static_cast<size_t>(t)];
        }
        TraceSpan ship(Tracer::Global(), "ship", "exchange", motion_index, t,
                       cross);
      }
    }
    // Like Broadcast/Gather, only a redistribute that actually touched the
    // interconnect can fault: when every row hashed to its home segment
    // there is no traffic to strike. One fault consultation drives both
    // the physical actions and the modelled recovery.
    std::vector<FaultEvent> faults;
    if (injector_ != nullptr && shipped > 0) {
      faults = injector_->MotionFaults(motion_index, 0, n);
    }
    if (physical) {
      if (shipped > 0) {
        std::vector<int> corrupt = ApplyPhysicalFaults(faults);
        for (int t = 0; t < n; ++t) {
          // Every cross-segment row bound for t, sender-major — the same
          // order fill_target scans, so the echoed copy slices back into
          // canonical positions.
          Table inbound(input.schema());
          for (int s = 0; s < n; ++s) {
            if (s == t) continue;
            const Table& src = *input.segment(s);
            const std::vector<int>& tgt = targets[static_cast<size_t>(s)];
            for (int64_t r = 0; r < src.NumRows(); ++r) {
              if (tgt[static_cast<size_t>(r)] == t) {
                inbound.AppendRows(src, r, r + 1);
              }
            }
          }
          TraceSpan ship(Tracer::Global(), "ship", "exchange", motion_index,
                         t, inbound.NumRows());
          Result<TablePtr> echoed = runtime_->Exchange(
              t, motion_index, inbound, label,
              corrupt[static_cast<size_t>(t)]);
          if (!echoed.ok()) return echoed.status();
          // Rebuild segment t in fill_target's sender-major order: local
          // rows come from this address space, cross rows from the frames
          // that round-tripped through worker t.
          Table* dst = segments[static_cast<size_t>(t)].get();
          int64_t offset = 0;
          for (int s = 0; s < n; ++s) {
            if (s == t) {
              const Table& src = *input.segment(s);
              const std::vector<int>& tgt = targets[static_cast<size_t>(s)];
              for (int64_t r = 0; r < src.NumRows(); ++r) {
                if (tgt[static_cast<size_t>(r)] == t) {
                  dst->AppendRows(src, r, r + 1);
                }
              }
            } else {
              const int64_t batch =
                  sent[static_cast<size_t>(s)][static_cast<size_t>(t)];
              dst->AppendRows(**echoed, offset, offset + batch);
              offset += batch;
            }
          }
        }
      } else {
        for (int t = 0; t < n; ++t) fill_target(t);
      }
    }
    if (injector_ != nullptr && shipped > 0) {
      auto resend = [&](const FaultEvent& f) -> int64_t {
        if (IsSegmentLoss(f.kind)) {
          // Everything the victim shipped anywhere must be replayed.
          int64_t t = 0;
          for (int64_t batch : sent[static_cast<size_t>(f.segment)]) {
            t += batch;
          }
          return t;
        }
        return sent[static_cast<size_t>(f.segment)][
            static_cast<size_t>(f.target)];
      };
      PROBKB_RETURN_NOT_OK(
          RecoverMotion(motion_index, label, faults, resend));
    }
  }

  motion_span.set_values(motion_index, shipped, 0);

  MppStep step;
  step.kind = MppStep::Kind::kRedistribute;
  step.label = label;
  step.tuples_shipped = shipped;
  step.seconds = MotionSeconds(shipped);
  cost_.Add(std::move(step));

  if (obs_ != nullptr) {
    std::vector<int64_t> per_segment;
    per_segment.reserve(static_cast<size_t>(n));
    for (const TablePtr& seg : segments) per_segment.push_back(seg->NumRows());
    obs_->RecordMotion(label, "redistribute", shipped,
                       shipped * input.schema().num_fields() * 8,
                       wall.Seconds(), per_segment, MotionSeconds(shipped));
  }

  return std::make_shared<DistributedTable>(
      input.schema(), std::move(segments), Distribution::Hash(key_cols),
      name.empty() ? input.name() + "_redist" : std::move(name));
}

Result<DistributedTablePtr> MppContext::Broadcast(
    const DistributedTable& input, std::string name) {
  const Timer wall;
  const std::string label = input.name().empty() ? "broadcast" : input.name();
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), "broadcast",
                        motion_index);

  TablePtr full = input.ToLocal();
  int64_t shipped = input.distribution().is_replicated()
                        ? 0
                        : full->NumRows() * (num_segments_ - 1);
  motion_span.set_values(motion_index, shipped, 0);

  std::vector<FaultEvent> faults;
  if (injector_ != nullptr && shipped > 0) {
    faults = injector_->MotionFaults(motion_index, 0, num_segments_);
  }

  // Process mode: every segment's copy physically round-trips through its
  // worker; segment t holds the tuples exactly as they came off the wire.
  std::vector<TablePtr> echoed_copies;
  if (runtime_ != nullptr && shipped > 0) {
    std::vector<int> corrupt = ApplyPhysicalFaults(faults);
    echoed_copies.resize(static_cast<size_t>(num_segments_));
    for (int t = 0; t < num_segments_; ++t) {
      TraceSpan ship(Tracer::Global(), "ship", "exchange", motion_index, t,
                     full->NumRows());
      Result<TablePtr> echoed = runtime_->Exchange(
          t, motion_index, *full, label, corrupt[static_cast<size_t>(t)]);
      if (!echoed.ok()) return echoed.status();
      echoed_copies[static_cast<size_t>(t)] = echoed.MoveValueOrDie();
    }
  } else if (runtime_ == nullptr && shipped > 0) {
    // Simulator counterpart of the physical loop: same ship spans.
    for (int t = 0; t < num_segments_; ++t) {
      TraceSpan ship(Tracer::Global(), "ship", "exchange", motion_index, t,
                     full->NumRows());
    }
  }

  if (injector_ != nullptr && shipped > 0) {
    // Any fault on a broadcast costs one full copy re-sent to the victim
    // (the source table survives on its home segments).
    auto resend = [&](const FaultEvent&) { return full->NumRows(); };
    PROBKB_RETURN_NOT_OK(RecoverMotion(motion_index, label, faults, resend));
  }

  MppStep step;
  step.kind = MppStep::Kind::kBroadcast;
  step.label = label;
  step.tuples_shipped = shipped;
  step.seconds = BroadcastSeconds(shipped);
  cost_.Add(std::move(step));

  if (obs_ != nullptr) {
    std::vector<int64_t> per_segment(static_cast<size_t>(num_segments_),
                                     full->NumRows());
    obs_->RecordMotion(label, "broadcast", shipped,
                       shipped * input.schema().num_fields() * 8,
                       wall.Seconds(), per_segment, BroadcastSeconds(shipped));
  }

  std::vector<TablePtr> segments =
      echoed_copies.empty()
          ? std::vector<TablePtr>(static_cast<size_t>(num_segments_), full)
          : std::move(echoed_copies);
  return std::make_shared<DistributedTable>(
      input.schema(), std::move(segments), Distribution::Replicated(),
      name.empty() ? input.name() + "_bcast" : std::move(name));
}

Result<TablePtr> MppContext::Gather(const DistributedTable& input) {
  const Timer wall;
  const std::string label = input.name().empty() ? "gather" : input.name();
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), "gather",
                        motion_index);

  TablePtr out = input.ToLocal();
  int64_t shipped = out->NumRows();
  motion_span.set_values(motion_index, shipped, 0);

  std::vector<FaultEvent> faults;
  if (injector_ != nullptr && shipped > 0) {
    faults = injector_->MotionFaults(motion_index, 0, num_segments_);
  }

  if (runtime_ != nullptr && shipped > 0 &&
      !input.distribution().is_replicated()) {
    // Process mode: pull every partition off its worker and assemble the
    // coordinator copy from the echoed frames, in canonical segment order
    // (the exact order ToLocal concatenates).
    std::vector<int> corrupt = ApplyPhysicalFaults(faults);
    TablePtr wired = Table::Make(input.schema());
    wired->ReserveRows(shipped);
    for (int s = 0; s < input.num_segments(); ++s) {
      TraceSpan ship(Tracer::Global(), "ship", "exchange", motion_index, s,
                     input.segment(s)->NumRows());
      Result<TablePtr> echoed = runtime_->Exchange(
          s, motion_index, *input.segment(s), label,
          corrupt[static_cast<size_t>(s)]);
      if (!echoed.ok()) return echoed.status();
      wired->AppendTable(**echoed);
    }
    out = std::move(wired);
  } else if (runtime_ == nullptr && shipped > 0 &&
             !input.distribution().is_replicated()) {
    // Simulator counterpart of the physical pull loop: same ship spans.
    for (int s = 0; s < input.num_segments(); ++s) {
      TraceSpan ship(Tracer::Global(), "ship", "exchange", motion_index, s,
                     input.segment(s)->NumRows());
    }
  }

  if (injector_ != nullptr && shipped > 0) {
    // A victim's rows are re-pulled from its (restarted) segment; a batch
    // fault costs the same single-segment replay.
    auto resend = [&](const FaultEvent& f) {
      return f.segment < input.num_segments()
                 ? input.segment(f.segment)->NumRows()
                 : 0;
    };
    PROBKB_RETURN_NOT_OK(RecoverMotion(motion_index, label, faults, resend));
  }

  MppStep step;
  step.kind = MppStep::Kind::kGather;
  step.label = input.name();
  step.tuples_shipped = shipped;
  step.seconds = MotionSeconds(shipped);
  cost_.Add(std::move(step));
  if (obs_ != nullptr) {
    std::vector<int64_t> per_segment;
    per_segment.reserve(static_cast<size_t>(input.num_segments()));
    for (int s = 0; s < input.num_segments(); ++s) {
      per_segment.push_back(input.segment(s)->NumRows());
    }
    obs_->RecordMotion(label, "gather", shipped,
                       shipped * input.schema().num_fields() * 8,
                       wall.Seconds(), per_segment, MotionSeconds(shipped));
  }
  return out;
}

void MppContext::RecordCompute(const std::string& label,
                               const std::vector<double>& seg_seconds) {
  TraceSpan span(Tracer::Global(), label.c_str(), "compute",
                 static_cast<int64_t>(seg_seconds.size()));
  MppStep step;
  step.kind = MppStep::Kind::kCompute;
  step.label = label;
  step.seconds =
      seg_seconds.empty()
          ? 0.0
          : *std::max_element(seg_seconds.begin(), seg_seconds.end());
  step.total_work_seconds = 0.0;
  for (double s : seg_seconds) step.total_work_seconds += s;
  if (obs_ != nullptr) {
    obs_->RecordCompute(label, step.seconds, step.total_work_seconds,
                        static_cast<int>(seg_seconds.size()));
  }
  cost_.Add(std::move(step));
}

}  // namespace probkb
