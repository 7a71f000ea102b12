#ifndef PROBKB_OBS_RING_H_
#define PROBKB_OBS_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace probkb {

/// Source of never-reused ring ids (shared by every Record type).
inline std::atomic<uint64_t> g_next_ring_id{1};

/// \brief Lock-free per-thread rings of sequence-stamped records: the one
/// journal substrate under the flight recorder and the tracer. `Record`
/// must be trivially copyable with a `uint64_t seq` member.
///
/// Each thread appends to its own fixed-capacity ring (registered on first
/// use; registration is the only locked path), so an append is a relaxed
/// fetch_add for the global sequence number plus a store into thread-local
/// slots. The last `capacity` records per thread survive; older ones are
/// overwritten and counted by dropped(). Merged() collects every ring and
/// sorts by sequence number; readers run after the recorded activity
/// settles, and per-ring heads are released/acquired so a settled
/// writer's records are visible.
template <typename Record>
class SeqRings {
 public:
  explicit SeqRings(size_t capacity)
      : id_(g_next_ring_id.fetch_add(1, std::memory_order_relaxed)),
        capacity_(capacity == 0 ? 1 : capacity) {}

  SeqRings(const SeqRings&) = delete;
  SeqRings& operator=(const SeqRings&) = delete;

  /// Never-reused instance id: thread-local caches key on it, so an
  /// instance allocated at a dead one's address cannot resurrect a stale
  /// cached pointer.
  uint64_t id() const { return id_; }

  /// \brief Copies `record` into the calling thread's ring, stamping the
  /// next global sequence number.
  void Append(const Record& record) {
    Ring* ring = LocalRing();
    const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    Record& slot = ring->slots[head % capacity_];
    slot = record;
    slot.seq = seq;
    // Publish the slot: pairs with the acquire in Merged().
    ring->head.store(head + 1, std::memory_order_release);
  }

  /// \brief Drops all records and restarts sequence numbering. Call only
  /// while no thread is appending (between runs).
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    // Keep the Ring allocations alive — threads hold cached pointers.
    for (auto& ring : rings_) ring->head.store(0, std::memory_order_release);
    next_seq_.store(0, std::memory_order_relaxed);
  }

  /// \brief Every surviving record, in sequence order.
  std::vector<Record> Merged() const {
    std::vector<Record> merged;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& ring : rings_) {
        const uint64_t head = ring->head.load(std::memory_order_acquire);
        const uint64_t kept = std::min<uint64_t>(head, capacity_);
        for (uint64_t i = head - kept; i < head; ++i) {
          merged.push_back(ring->slots[i % capacity_]);
        }
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const Record& x, const Record& y) { return x.seq < y.seq; });
    return merged;
  }

  /// \brief Records overwritten by ring wrap-around (lost to Merged()).
  int64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t dropped = 0;
    for (const auto& ring : rings_) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      if (head > capacity_) dropped += static_cast<int64_t>(head - capacity_);
    }
    return dropped;
  }

 private:
  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::vector<Record> slots;
    /// Records ever written by the owning thread; slots hold the last
    /// min(head, capacity) of them.
    std::atomic<uint64_t> head{0};
  };

  Ring* LocalRing() {
    struct Cache {
      uint64_t owner_id = 0;
      Ring* ring = nullptr;
    };
    thread_local Cache cache;
    if (cache.owner_id == id_) return cache.ring;
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<Ring>(capacity_));
    cache.owner_id = id_;
    cache.ring = rings_.back().get();
    return cache.ring;
  }

  const uint64_t id_;
  const size_t capacity_;
  std::atomic<uint64_t> next_seq_{0};
  /// Registration is append-only and rings live as long as this object,
  /// so a thread's cached Ring* stays valid across Reset().
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace probkb

#endif  // PROBKB_OBS_RING_H_
