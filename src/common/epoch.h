// Epoch-based memory reclamation for single-writer / many-reader
// structures (the serving engine's price books, the versioned catalog).
//
// The problem: a writer unlinks a node that lock-free readers may still
// be traversing. shared_ptr solves it with two atomic refcount updates
// per reader pin — contended cache-line traffic on the hottest read
// path. Epochs solve it with one uncontended store per pin:
//
//  * The manager keeps a global epoch counter and a fixed array of
//    cache-line-padded reader slots.
//  * A reader entering a read-side critical section constructs a Guard:
//    it claims a free slot (CAS kIdle -> observed epoch) and then
//    re-checks the global epoch, republishing until the two agree. On
//    exit the Guard stores kIdle back. No shared counter is touched.
//  * The writer unlinks a node, hands it to Retire() stamped with the
//    current epoch, bumps the epoch, and calls Reclaim(), which frees
//    every retired node whose stamp is older than the minimum epoch
//    pinned by any active reader.
//
// Reclamation guarantee (the Dekker argument, all epoch operations
// seq_cst): a reader's final pinned epoch e is the last global value it
// observed after publishing its slot. If e <= R (the retire stamp), the
// slot publication precedes the writer's post-bump slot scan in the
// single total order, so the scan sees e and holds the node (min pinned
// <= R). If e > R, the reader observed the post-retire bump, which the
// unlink happens-before — the reader can only reach the replacement
// node, never the retired one. Either way no node is freed while a
// reader that could reach it is pinned. Freeing itself is ordered after
// every reader's accesses through the release slot-store / acquire
// slot-scan pair (unbroken release sequence through slot CAS claims).
//
// Slot exhaustion (more concurrent readers than slots) falls back to a
// mutex-registered overflow list — correct, just not lock-free; size the
// slot array above the reader thread count to stay on the fast path.
//
// Thread safety: Guard construction/destruction from any thread.
// Retire / BumpEpoch / Reclaim may race each other (shard writers fan
// out over a shared manager); a node must be retired at most once.
#ifndef QP_COMMON_EPOCH_H_
#define QP_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace qp::common {

class EpochManager {
 public:
  /// Slot value meaning "no reader": all-ones, never a real epoch.
  static constexpr uint64_t kIdle = ~0ull;

  struct Stats {
    uint64_t epoch = 0;
    /// Cumulative Guard claims — the reader-pin counter serving paths
    /// report instead of shared_ptr refcounts.
    uint64_t pins = 0;
    uint64_t retired = 0;
    uint64_t reclaimed = 0;
    /// Retired but not yet freed.
    uint64_t pending = 0;
    /// Pins that overflowed the slot array onto the mutex path.
    uint64_t overflow_pins = 0;
  };

  /// `num_slots` bounds the number of concurrent lock-free readers;
  /// further readers take the (correct, slower) overflow path.
  explicit EpochManager(int num_slots = 128);

  /// Frees everything still pending. No Guard may outlive the manager.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII read-side critical section: while alive, no node retired at an
  /// epoch >= the epoch observed at construction is freed. Movable so
  /// views can carry their pin.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(EpochManager& manager) { manager.Pin(*this); }
    ~Guard() { Release(); }

    Guard(Guard&& other) noexcept
        : manager_(other.manager_), slot_(other.slot_), epoch_(other.epoch_) {
      other.manager_ = nullptr;
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Release();
        manager_ = other.manager_;
        slot_ = other.slot_;
        epoch_ = other.epoch_;
        other.manager_ = nullptr;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    bool pinned() const { return manager_ != nullptr; }
    uint64_t epoch() const { return epoch_; }

    /// Unpins early (idempotent).
    void Release() {
      if (manager_ != nullptr) {
        manager_->Unpin(*this);
        manager_ = nullptr;
      }
    }

   private:
    friend class EpochManager;
    EpochManager* manager_ = nullptr;
    int slot_ = -1;  // -1: registered on the overflow list
    uint64_t epoch_ = 0;
  };

  /// Hands an unlinked node to the manager, stamped with the current
  /// epoch. `deleter(node)` runs once no reader pinned at or before the
  /// stamp remains — from a later Reclaim() or the destructor. The node
  /// must already be unreachable from the published structure.
  void Retire(void* node, void (*deleter)(void*));

  /// Advances the global epoch. Call after Retire so the retired stamp
  /// becomes strictly older than every future pin.
  void BumpEpoch();

  /// Frees every retired node older than the minimum pinned epoch.
  void Reclaim();

  uint64_t epoch() const { return epoch_.load(std::memory_order_seq_cst); }

  /// True when every currently-pinned reader observed an epoch strictly
  /// newer than `epoch` — i.e. every reader that could have seen state
  /// published at or before `epoch` has since unpinned. Writers use this
  /// as a drain gate before mutating memory those readers might still
  /// reference (the versioned catalog's fold). The answer is
  /// instantaneous: a reader pinning after the check pins at a newer
  /// epoch and cannot invalidate it (see the Dekker argument above).
  bool DrainedAfter(uint64_t epoch) const { return MinPinnedEpoch() > epoch; }

  Stats stats() const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };
  struct RetiredNode {
    void* node;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  void Pin(Guard& guard);
  void Unpin(Guard& guard);
  /// Minimum epoch pinned by any reader; current epoch when none.
  uint64_t MinPinnedEpoch() const;

  const int num_slots_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> epoch_{1};

  std::atomic<uint64_t> pins_{0};
  std::atomic<uint64_t> overflow_pins_{0};
  std::atomic<uint64_t> retired_total_{0};
  std::atomic<uint64_t> reclaimed_total_{0};

  mutable std::mutex retired_mutex_;
  std::vector<RetiredNode> retired_;

  /// Multiset of epochs pinned past the slot array (rare).
  mutable std::mutex overflow_mutex_;
  std::vector<uint64_t> overflow_;
};

}  // namespace qp::common

#endif  // QP_COMMON_EPOCH_H_
