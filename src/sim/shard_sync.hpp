// Synchronization primitives for the sharded engine.
//
// ShardMailbox is the cross-shard handoff channel: a single-producer /
// single-consumer ring of fixed-size chunks with *batched* publication.  The
// writer (the source shard, during its pass) appends entries into chunk
// arrays with plain stores and makes a whole batch visible with ONE
// release-store of the published count (`flush()`); the reader (the
// destination shard, at a rung end) acquires that count once and drains
// every published entry.  That amortizes the cross-core cache-line
// traffic of the old per-entry vector to one line per 64 entries plus one
// atomic per batch — the "cache-line-friendly chunks with a single size/flag
// publish" design from DESIGN.md §12.  Between coordinator barriers the
// usual quiesced-owner discipline applies, so the coordinator may read the
// stats while workers are parked.
//
// ShardClockSlot is the per-shard published progress that lets shards
// self-synchronize at rung ends *inside* an epoch without a condvar barrier:
// a shard flushes its mailboxes, release-publishes the number of rungs it
// has completed, then spin-waits (with yields) until every peer reaches the
// same rung.  Acquiring a peer's progress therefore also acquires
// everything the peer flushed before publishing it — the message-passing
// pattern the rung ladder relies on (DESIGN.md §12).
//
// EpochBarrier parks the worker threads between epochs (passes of up to 16
// rungs): the coordinator publishes a pass generation, workers walk their
// shard's ladder and report back, and the coordinator proceeds only when
// every worker is done.  All three are benchmarked in
// bench/micro_datastructures.cpp (BM_ShardMailbox, BM_MailboxBatch,
// BM_EpochBarrier).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/assert.hpp"

namespace ufab::sim {

/// Single-producer / single-consumer chunked channel with batch publication.
///
/// Roles (enforced by the engine's pass structure, not by the type):
///   * writer — post() any number of entries, then flush() once per batch;
///   * reader — drain() everything published so far;
///   * coordinator (both sides quiesced at a barrier) — may read the stats.
///
/// Entry positions are 64-bit and grow monotonically (they never wrap);
/// position p lives in slot (p / kChunkItems) % kMaxChunks of the chunk
/// table, so the table is a ring and positions need no rewind.  Chunk
/// storage is allocated on first touch and retained, so steady-state epochs
/// allocate nothing.
template <typename T>
class ShardMailbox {
 public:
  static constexpr std::size_t kChunkItems = 64;   ///< One batch cache block.
  static constexpr std::size_t kMaxChunks = 256;   ///< 16384 in-flight entries.

  ShardMailbox() : chunks_(kMaxChunks, nullptr) {}
  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;
  ~ShardMailbox() {
    for (Chunk* c : chunks_) delete c;
  }

  // --- writer side ---

  void post(T v) {
    const std::uint64_t pos = tail_;
    UFAB_CHECK_MSG(pos - head_.load(std::memory_order_acquire) < kChunkItems * kMaxChunks,
                   "shard mailbox overflow: one pass posted too many crossings");
    Chunk*& slot = chunks_[(pos / kChunkItems) % kMaxChunks];
    if (slot == nullptr) slot = new Chunk();
    slot->items[pos % kChunkItems] = std::move(v);
    tail_ = pos + 1;
    ++posted_;
  }

  /// Publishes every entry posted since the last flush with a single
  /// release-store.  No-op (and not counted) when nothing new was posted.
  void flush() {
    if (published_.load(std::memory_order_relaxed) == tail_) return;
    published_.store(tail_, std::memory_order_release);
    ++flushes_;
  }

  // --- reader side ---

  /// Consumes every published entry in post order, invoking `fn(T&&)` on
  /// each.  Returns the batch size (0 when nothing was published).
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    const std::uint64_t avail = published_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (avail == head) return 0;
    const auto batch = static_cast<std::size_t>(avail - head);
    for (std::uint64_t pos = head; pos < avail; ++pos) {
      fn(std::move(chunks_[(pos / kChunkItems) % kMaxChunks]->items[pos % kChunkItems]));
    }
    head_.store(avail, std::memory_order_release);
    ++drains_;
    if (batch > max_batch_) max_batch_ = batch;
    return batch;
  }

  // --- stats (read quiesced) ---
  [[nodiscard]] std::uint64_t posted_total() const { return posted_; }
  /// Batches published (one release-store each).
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  /// Non-empty drains (== injection batches the reader absorbed).
  [[nodiscard]] std::uint64_t drains() const { return drains_; }
  /// High-water mark of entries handed over in one drain — the per-boundary
  /// cross-shard traffic gauge the profiler exports.
  [[nodiscard]] std::size_t max_drain_batch() const { return max_batch_; }
  /// Entries posted but not yet drained (quiesced read; pending() uses it).
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(tail_ - head_.load(std::memory_order_relaxed));
  }

 private:
  struct Chunk {
    T items[kChunkItems];
  };

  std::vector<Chunk*> chunks_;  ///< Fixed slot table; entries allocated lazily.

  // Writer-owned.
  std::uint64_t tail_ = 0;    ///< Next position to post.
  std::uint64_t posted_ = 0;
  std::uint64_t flushes_ = 0;

  /// The batch publication point: item writes (and chunk-pointer stores)
  /// happen-before this release-store; the reader's acquire-load pairs with
  /// it.  The only cross-thread traffic the channel generates per batch.
  std::atomic<std::uint64_t> published_{0};

  // Reader-owned.  head_ is the one reader field the writer reads (post's
  // overflow check), so it is atomic: drain's release-store pairs with that
  // acquire-load, ordering the reader's last use of a slot before the
  // writer reuses it.
  std::atomic<std::uint64_t> head_{0};  ///< Next position to drain.
  std::uint64_t drains_ = 0;
  std::size_t max_batch_ = 0;
};

/// One shard's published progress through the rung ladder (rungs completed,
/// monotone over the run), cache-line isolated so the spin loops never
/// false-share.  Publishing with release after flushing mailboxes makes every
/// pre-publish flush visible to any thread that acquires a value at or past
/// the rung.
struct alignas(64) ShardClockSlot {
  std::atomic<std::int64_t> ns{0};

  void publish(std::int64_t t) { ns.store(t, std::memory_order_release); }
  [[nodiscard]] std::int64_t read() const { return ns.load(std::memory_order_acquire); }

  /// Spin-waits (pausing/yielding) until the value reaches `target`.
  /// Returns the number of spin iterations (0 = peer was already there).
  std::uint64_t await(std::int64_t target) const {
    std::uint64_t spins = 0;
    while (read() < target) {
      ++spins;
      if ((spins & 63u) == 0) {
        std::this_thread::yield();  // single-CPU hosts: let the peer run
      }
    }
    return spins;
  }
};

/// Two-phase barrier between the coordinator and the shard workers.
///
/// Coordinator: release(gen) -> run its own shard's pass -> wait_all_done().
/// Worker: wait_for_pass(gen) -> run its shard's pass -> arrive_done().
/// shutdown() wakes every worker with a stop signal (wait_for_pass returns
/// false) so threads can be joined.
class EpochBarrier {
 public:
  explicit EpochBarrier(int workers) : workers_(workers) {}

  // --- coordinator side ---
  void release(std::uint64_t gen) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gen_ = gen;
      done_ = 0;
    }
    cv_start_.notify_all();
  }

  void wait_all_done() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return done_ == workers_; });
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
  }

  // --- worker side ---
  /// Blocks until a pass newer than `last_gen` is released (updates
  /// `last_gen` and returns true) or shutdown is requested (returns false).
  [[nodiscard]] bool wait_for_pass(std::uint64_t& last_gen) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_start_.wait(lock, [&] { return stop_ || gen_ != last_gen; });
    if (stop_) return false;
    last_gen = gen_;
    return true;
  }

  void arrive_done() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++done_;
    }
    cv_done_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  int workers_;
  int done_ = 0;
  std::uint64_t gen_ = 0;
  bool stop_ = false;
};

}  // namespace ufab::sim
