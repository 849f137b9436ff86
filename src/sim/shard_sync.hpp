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
// publish" design from DESIGN.md §12.  The reader gets each entry by
// reference and the writer releases it, so what an entry owns (a crossing's
// original packet) is freed on the writer's own thread.  Drained chunks go
// back to a spare list on the writer's side, so a channel's memory follows
// what it carries at once, not the total it has carried.  Positions start
// at 0 and never wrap, so the writer's tail is also the channel's post
// count.  Between coordinator barriers the usual quiesced-owner discipline
// applies, so the coordinator may read the stats and release drained
// entries while workers are parked.
//
// ShardClockSlot is the per-shard published progress that lets shards
// self-synchronize at rung ends *inside* an epoch without a condvar barrier:
// a shard flushes its mailboxes, release-publishes the number of rungs it
// has completed, then spin-waits (with yields) until every peer reaches the
// same rung.  Acquiring a peer's progress therefore also acquires
// everything the peer flushed before publishing it — the message-passing
// pattern the rung ladder relies on (DESIGN.md §12).
//
// EpochBarrier parks the worker threads between epochs (passes of up to
// Simulator::kEpochRungs = 16 rungs): the coordinator publishes a pass
// generation, workers walk their shard's ladder and report back, and the
// coordinator proceeds only when every worker is done.  All three are benchmarked in
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
///   * coordinator (both sides quiesced at a barrier) — may read the stats
///     and release_drained().
///
/// An entry lives in its slot from post() until it is released: reset to
/// T{} by the writer's first post() after the reader's head passed it, by
/// release_drained(), or by ~ShardMailbox.  A drained entry therefore
/// outlives its drain, and an undrained one is never touched before the
/// destructor.
///
/// Entry positions are 64-bit and grow monotonically (they never wrap);
/// position p lives in slot (p / kChunkItems) % kMaxChunks of the chunk
/// table, so the table is a ring and positions need no rewind.  Chunks are
/// recycled: when the writer needs a chunk for an empty slot, it first moves
/// every chunk wholly below the reader's head out of the table onto a spare
/// list only it touches, then takes the last spare before allocating.  So a
/// channel holds about as many chunks as it ever had in flight at once, and
/// steady-state epochs allocate nothing.
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
    for (Chunk* c : spare_) delete c;
  }

  // --- writer side ---

  /// Appends `v`, first releasing every entry the reader has drained.
  void post(T v) {
    const std::uint64_t pos = tail_;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    UFAB_CHECK_MSG(pos - head < kChunkItems * kMaxChunks,
                   "shard mailbox overflow: one pass posted too many crossings");
    release_below(head);
    Chunk*& slot = chunks_[(pos / kChunkItems) % kMaxChunks];
    if (slot == nullptr) slot = take_chunk(head);
    slot->items[pos % kChunkItems] = std::move(v);
    tail_ = pos + 1;
  }

  /// Publishes every entry posted since the last flush with a single
  /// release-store.  No-op (and not counted) when nothing new was posted.
  void flush() {
    if (published_.load(std::memory_order_relaxed) == tail_) return;
    published_.store(tail_, std::memory_order_release);
    ++flushes_;
  }

  /// Releases every drained entry the writer has not yet released.  Only
  /// with both sides quiesced (the coordinator between runs).
  void release_drained() { release_below(head_.load(std::memory_order_relaxed)); }

  // --- reader side ---

  /// Hands every published entry to `fn(T&)` in post order, leaving it in
  /// its slot for the writer to release.  Returns the batch size (0 when
  /// nothing was published).
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    const std::uint64_t avail = published_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (avail == head) return 0;
    const auto batch = static_cast<std::size_t>(avail - head);
    for (std::uint64_t pos = head; pos < avail; ++pos) fn(item(pos));
    head_.store(avail, std::memory_order_release);
    ++drains_;
    if (batch > max_batch_) max_batch_ = batch;
    return batch;
  }

  // --- stats (read quiesced) ---
  /// Entries posted so far: the monotone tail.  The writer may also read it
  /// mid-pass.
  [[nodiscard]] std::uint64_t posted_total() const { return tail_; }
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
  /// Chunks allocated, in the slot table or spare (quiesced read).
  [[nodiscard]] std::size_t chunks_held() const {
    std::size_t n = spare_.size();
    for (const Chunk* c : chunks_) n += c != nullptr ? 1 : 0;
    return n;
  }

 private:
  struct Chunk {
    T items[kChunkItems];
  };

  [[nodiscard]] T& item(std::uint64_t pos) {
    return chunks_[(pos / kChunkItems) % kMaxChunks]->items[pos % kChunkItems];
  }

  /// Resets every entry below `head` (a reader head the caller acquired, or
  /// read quiesced) that is still unreleased.  The reader's release-store of
  /// its head ordered its last use of them before this.
  void release_below(std::uint64_t head) {
    for (; released_ < head; ++released_) item(released_) = T{};
  }

  /// A chunk for the writer's next, empty slot.  Chunks wholly below `head`
  /// (the acquired reader head) go to the spares first: the reader is done
  /// with them and post() has released their entries, and none of their
  /// slots has been re-entered, because the writer laps onto a slot still
  /// holding a chunk only when all 256 are full, and then never needs a
  /// chunk again.
  Chunk* take_chunk(std::uint64_t head) {
    for (; reclaimed_ < head / kChunkItems; ++reclaimed_) {
      Chunk*& slot = chunks_[reclaimed_ % kMaxChunks];
      spare_.push_back(slot);
      slot = nullptr;
    }
    if (spare_.empty()) return new Chunk();
    Chunk* c = spare_.back();
    spare_.pop_back();
    return c;
  }

  std::vector<Chunk*> chunks_;  ///< Fixed slot table; null where no chunk is live.

  // Writer-owned.
  std::uint64_t tail_ = 0;    ///< Next position to post; also the post count.
  std::uint64_t flushes_ = 0;
  std::uint64_t released_ = 0;   ///< Entries below this are reset.
  std::uint64_t reclaimed_ = 0;  ///< Chunks (pos / kChunkItems) below this are spare.
  std::vector<Chunk*> spare_;    ///< Drained chunks, ready for reuse.

  /// The batch publication point: item writes (and chunk-pointer stores)
  /// happen-before this release-store; the reader's acquire-load pairs with
  /// it.  The only cross-thread traffic the channel generates per batch.
  std::atomic<std::uint64_t> published_{0};

  // Reader-owned.  head_ is the one reader field the writer reads (post's
  // overflow check, entry release and chunk reclaim), so it is atomic:
  // drain's release-store pairs with that acquire-load, ordering the
  // reader's last use of a slot before the writer releases, reuses or
  // reclaims it.
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
