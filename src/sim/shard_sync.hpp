// Synchronization primitives for the sharded engine.
//
// ShardMailbox is the cross-shard handoff channel: two plain batches per
// (source, destination) shard pair, one per rung parity.  The writer (the
// source shard) appends rung r's crossings to batch r & 1; the reader (the
// destination shard) takes that batch at rung r's end.  The channel has no
// atomics of its own: the rung ladder's progress publication already orders
// every handoff, for both executors and across passes (DESIGN.md §12.2).
//   1. The writer's posts of rung r happen before its progress publish
//      (>= r), which the reader acquires before it drains rung r.
//   2. The reader's drain of rung r happens before its own publish
//      (>= r + 1), which the writer acquires before its first post of rung
//      r + 2, the next one that touches the same batch.
// The reader gets each entry by reference and the writer releases it when it
// reuses the batch, so a crossing's original packet dies on its own thread.
//
// ShardClockSlot is the per-shard published progress that lets shards
// self-synchronize at rung ends *inside* an epoch without a condvar barrier:
// a shard release-publishes the number of rungs it has completed, then
// spin-waits (with yields) until every peer reaches the same rung.
// Acquiring a peer's progress therefore also acquires every crossing the
// peer posted before publishing it — the message-passing pattern the
// mailboxes rest on.
//
// EpochBarrier parks the worker threads between epochs (passes of up to
// Simulator::kEpochRungs = 16 rungs): the coordinator publishes a pass
// generation, workers walk their shard's ladder and report back, and the
// coordinator proceeds only when every worker is done.  All three are
// benchmarked in bench/micro_datastructures.cpp (BM_ShardMailbox,
// BM_MailboxBatch, BM_EpochBarrier).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/assert.hpp"

namespace ufab::sim {

/// Single-producer / single-consumer channel of per-rung batches.
///
/// Roles (enforced by the engine's rung ladder, not by the type):
///   * writer — post(rung, v) while it runs rung `rung`;
///   * reader — drain(rung, fn) once, at the end of rung `rung`;
///   * coordinator (both sides quiesced at a barrier) — may read the stats
///     and clear().
///
/// An entry lives from post() until the writer's first post of a later rung
/// of the same parity, clear() once drained, or ~ShardMailbox.  In a Debug
/// build that post fails loudly if the reader never drained the batch.
template <typename T>
class ShardMailbox {
 public:
  ShardMailbox() = default;
  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  // --- writer side ---

  /// Appends `v` to rung `rung`'s batch.  The rung's first post releases the
  /// entries its batch still holds from an earlier rung of the same parity.
  void post(std::int64_t rung, T v) {
    Batch& b = batch_[rung & 1];
    if (b.rung != rung) {
#ifndef NDEBUG
      UFAB_CHECK_MSG(b.items.empty() || b.drained == b.rung,
                     "shard mailbox: a post reuses a batch its reader never drained");
#endif
      b.items.clear();
      b.rung = rung;
      ++batches_;
    }
    b.items.push_back(std::move(v));
    ++posted_;
  }

  /// Releases every drained entry; an undrained one stays, visible to size().
  /// Only with both sides quiesced (the coordinator when a sharded run ends).
  void clear() {
    for (Batch& b : batch_) {
      if (b.drained == b.rung) b.items.clear();
    }
  }

  // --- reader side ---

  /// Hands rung `rung`'s batch to `fn(T&)` in post order, leaving each entry
  /// for the writer to release.  Returns the batch size (0 when nothing was
  /// posted in the rung).
  template <typename Fn>
  std::size_t drain(std::int64_t rung, Fn&& fn) {
    Batch& b = batch_[rung & 1];
    if (b.rung != rung) return 0;
    b.drained = rung;
    for (T& v : b.items) fn(v);
    ++drains_;
    max_batch_ = std::max(max_batch_, b.items.size());
    return b.items.size();
  }

  // --- stats (read quiesced) ---
  /// Entries posted so far.  The writer may also read it mid-pass.
  [[nodiscard]] std::uint64_t posted_total() const { return posted_; }
  /// Non-empty rung batches posted (each one drain's worth of entries).
  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  /// Non-empty drains (== injection batches the reader absorbed).
  [[nodiscard]] std::uint64_t drains() const { return drains_; }
  /// High-water mark of entries handed over in one drain — the per-boundary
  /// cross-shard traffic gauge the profiler exports.
  [[nodiscard]] std::size_t max_drain_batch() const { return max_batch_; }
  /// Entries posted but not yet drained (quiesced read; pending() uses it).
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Batch& b : batch_) n += b.drained == b.rung ? 0 : b.items.size();
    return n;
  }

 private:
  /// One rung's entries, the rung that filled them and the last rung drained.
  struct Batch {
    std::vector<T> items;
    std::int64_t rung = -1;
    std::int64_t drained = -1;
  };

  Batch batch_[2];  ///< Indexed by rung & 1.

  // Writer-owned.
  std::uint64_t posted_ = 0;
  std::uint64_t batches_ = 0;

  // Reader-owned.
  std::uint64_t drains_ = 0;
  std::size_t max_batch_ = 0;
};

/// One shard's published progress through the rung ladder (rungs completed,
/// monotone over the run), cache-line isolated so the spin loops never
/// false-share.  Publishing with release makes every mailbox post and drain
/// before it visible to any thread that acquires a value at or past the
/// rung.
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
