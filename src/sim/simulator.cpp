// Execution for Simulator: the one run loop (shard_pass) and the one epoch
// protocol of a sharded (conservative parallel DES) engine, the rung ladder.
//
// A sharded run_until(t) — run() is the horizon TimeNs::max() — is a
// sequence of passes, one coordinator barrier each.  A pass starts at base =
// the earliest pending event (never before the common clock) and walks up to
// set_epoch_windows() rungs (16) of the lookahead L: rung i runs every event
// at or before min(base + i*L - 1, t), parks the clock at base + i*L (at t
// for the rung that reaches the horizon, nowhere for a drain's), flushes
// the outgoing mailboxes (one release-store per non-empty channel),
// publishes its progress, waits until every peer published the same rung,
// and drains its incoming mailboxes.  A pass ends at its last rung or at
// the one that reaches t; L = ∞ (no cut link) reaches t in one rung.
//
// Safety is one argument at every rung (DESIGN.md §9): a crossing posted at
// wire-exit time tau lands at tau + prop >= tau + L.  Rung i runs events at
// or after base + (i-1)*L, so everything it posts lands at or past
// base + i*L: after the rung's last instant, and after t for the rung that
// reaches it.  Because a peer flushes *before* publishing, acquiring its
// progress also acquires every crossing it posted, so a shard never runs
// past a remote event, and once the horizon rung drains nothing at or
// before t is left anywhere — every clock is equal between passes.
//
// Sequential execution walks the same ladder interleaved (every shard runs
// a rung and flushes, then every shard drains); threaded execution walks it
// on every shard at once.  The canonical (h, k) keys fix the pop order for
// any safe ladder, so both executors and every ladder width fire the serial
// engine's schedule.
//
// Cross-shard packets are handed over, not cloned: injection moves the
// PacketPtr into the destination calendar with its origin pool unchanged,
// and a release on a foreign shard routes the storage home through a
// per-(freer, owner) return mailbox (PacketPool's foreign guard, armed only
// for threaded execution).  absorb inserts through the bulk calendar path
// (push_deferred + end_bulk) so a drain batch costs one heap fixup per
// touched bucket instead of one sift per crossing.
#include "src/sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>

#include "src/core/log.hpp"
#include "src/sim/node.hpp"

namespace ufab::sim {

namespace {
[[nodiscard]] std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Simulator::~Simulator() {
  if (barrier_ != nullptr) barrier_->shutdown();
  for (std::thread& w : workers_) w.join();
  // Teardown releases (pending events, undrained crossings) must reach their
  // pools directly: with the workers gone there is nobody left to drain a
  // return mailbox, so disarm every foreign guard before members destruct.
  for (auto& s : shards_) s->pool.set_foreign_guard(s->index, nullptr, nullptr);
  // Ownership handoff means a shard's calendar can hold packets born in any
  // other shard's arena.  Shards destruct member-wise in index order, so
  // shard 0's pool (and the slabs its packets live in) would be freed while
  // a later shard's pending events still own packets from it.  Drop every
  // pending event here, while all pools are alive; the cross/return
  // mailboxes are declared after shards_ and already destruct first.
  for (auto& s : shards_) {
    for (Bucket& b : s->ring) {
      b.heap.clear();
      b.slots.clear();
      b.fixup_from = Bucket::kNoFixup;
    }
    s->overflow.heap.clear();
    s->overflow.slots.clear();
    s->overflow.free_idx.clear();
    s->ring_size = 0;
    std::fill(std::begin(s->occupied), std::end(s->occupied), std::uint64_t{0});
    s->touched.clear();
  }
}

std::uint64_t Simulator::occupied_distance_far(const Shard& s, std::uint64_t from) {
  std::uint64_t w = from >> 6;
  std::uint64_t dist = 64 - (from & 63);
  // kOccupancyWords steps revisit the starting word, whose bits below `from`
  // are the wrapped-around tail of the ring.
  for (std::uint64_t n = 0; n < kOccupancyWords; ++n, dist += 64) {
    w = (w + 1) & (kOccupancyWords - 1);
    if (s.occupied[w] != 0) {
      return dist + static_cast<std::uint64_t>(std::countr_zero(s.occupied[w]));
    }
  }
  UFAB_CHECK_MSG(false, "calendar ring non-empty but its occupancy bitmap is clear");
  return 0;
}

void Simulator::configure_shards(int shards, TimeNs lookahead, ShardExec exec) {
  UFAB_CHECK_MSG(!exec_started_, "configure_shards after a run started");
  UFAB_CHECK_MSG(clocks_.empty(), "configure_shards called twice");
  const Shard& s0 = *shards_.front();
  UFAB_CHECK_MSG(s0.processed == 0 && s0.ring_size == 0 && s0.overflow.heap.empty() &&
                     root_k_ == 0,
                 "configure_shards must precede all scheduling");
  UFAB_CHECK(shards >= 1 && shards <= kMaxShards);
  UFAB_CHECK(lookahead.ns() > 0);
  lookahead_ = lookahead;
  exec_request_ = exec;
  for (int i = 1; i < shards; ++i) shards_.push_back(std::make_unique<Shard>(i));
  const auto n = static_cast<std::size_t>(shards);
  cross_ch_.resize(n * n);
  ret_ch_.resize(n * n);
  clocks_.resize(n);
  for (std::size_t src = 0; src < n; ++src) {
    clocks_[src] = std::make_unique<ShardClockSlot>();
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      cross_ch_[src * n + dst] = std::make_unique<ShardMailbox<Crossing>>();
      ret_ch_[src * n + dst] = std::make_unique<ShardMailbox<Packet*>>();
    }
  }
}

void Simulator::require_sequential(const char* reason) {
  UFAB_CHECK_MSG(!(exec_started_ && exec_threads_),
                 "require_sequential() after threaded execution began");
  sequential_only_ = true;
  const std::string label = reason == nullptr ? "unspecified" : reason;
  if (std::find(sequential_reasons_.begin(), sequential_reasons_.end(), label) !=
      sequential_reasons_.end()) {
    return;
  }
  sequential_reasons_.push_back(label);
  // A 1-shard run was never going to use threads; only warn when a requested
  // multi-shard run is actually being downgraded.
  if (shards_.size() > 1) {
    UFAB_LOG_WARN("sim: forcing sequential epoch execution (reason: %s); %d shards will run "
                  "single-threaded",
                  label.c_str(), static_cast<int>(shards_.size()));
  }
}

void Simulator::ensure_exec_started() {
  if (exec_started_) return;
  exec_started_ = true;
  bool threads = shards_.size() > 1;
  switch (exec_request_) {
    case ShardExec::kSequential:
      threads = false;
      break;
    case ShardExec::kThreads:
      break;  // forced, even on a single-CPU host (useful under TSan)
    case ShardExec::kAuto:
      threads = threads && std::thread::hardware_concurrency() > 1;
      break;
  }
  // A sequential requirement wins over a threads request: sequential epochs
  // fire the identical schedule, so correctness is never at stake — only the
  // cross-shard reads (queue sampling, fault plane) that demanded it.
  if (sequential_only_) threads = false;
  exec_threads_ = threads;
  if (!threads) return;
  // Concurrent shards must not touch each other's freelists: arm the
  // foreign-release guard so a packet freed away from home is posted to the
  // return mailbox instead (sequential execution keeps the plain fast path).
  for (auto& s : shards_) {
    s->pool.set_foreign_guard(s->index, &Simulator::foreign_release_sink, this);
  }
  barrier_ = std::make_unique<EpochBarrier>(static_cast<int>(shards_.size()) - 1);
  workers_.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_main(static_cast<int>(i)); });
  }
}

void Simulator::foreign_release_sink(void* ctx, PacketPool* owner, Packet* p) {
  auto* sim = static_cast<Simulator*>(ctx);
  sim->ret_ch(ufab::current_shard_index(), owner->owner_shard()).post(p);
}

void Simulator::worker_main(int shard_index) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  tls_ = ShardScope::Active{this, &s};
  ufab::tls_shard_index = shard_index;
  obs::ProfSlice* const sl = prof_slice(shard_index);
  std::uint64_t gen = 0;
  if (!barrier_->wait_for_pass(gen)) return;
  while (true) {
    walk_ladder(s);
    const std::int64_t parked_at = steady_ns();
    const obs::ProfScope wait(sl, obs::ProfCat::kBarrierWait);
    barrier_->arrive_done();
    if (!barrier_->wait_for_pass(gen)) return;
    // Written between passes is safe: the coordinator only reads this while
    // workers are parked, ordered through the barrier's mutex.
    s.barrier_wait_ns += steady_ns() - parked_at;
  }
}

/// Runs the pass pass_base_/pass_horizon_/pass_rungs_ describe on every
/// shard.  Threaded: releases the workers, walks shard 0's ladder on the
/// coordinator (already scoped to shard 0 by the caller), then waits for
/// every worker — the coordinator's stall is the tail it spends waiting for
/// the slowest one, the direct read on "does sharding pay".  Sequential: the
/// coordinator walks the identical ladder in index order — for each rung,
/// every shard runs and flushes, then every shard drains — the same
/// flush-before-drain dataflow, hence the same schedule.
void Simulator::run_pass() {
  if (exec_threads_) {
    barrier_->release(++pass_gen_);
    walk_ladder(*shards_.front());
    const obs::ProfScope wait(prof_slice(0), obs::ProfCat::kBarrierWait);
    barrier_->wait_all_done();
  } else {
    for (int i = 1; i <= pass_rungs_; ++i) {
      for (auto& s : shards_) {
        const ShardScope scope = scoped(s->index);
        run_rung(*s, i);
      }
      const obs::ProfScope inject(prof_slice(0), obs::ProfCat::kMailboxInject);
      for (auto& s : shards_) drain_incoming(*s);
    }
  }
  rungs_done_ += pass_rungs_;
}

/// One shard's side of a threaded pass (worker thread, or the coordinator
/// for shard 0).  The ladder is common to all shards, so publishing a rung
/// after flushing makes "every peer published rung r" imply "every crossing
/// a peer posted before it is visible" — the message-passing pattern the
/// mailboxes' single release-store is designed around.  Progress is a rung
/// count, not a clock: the rung that reaches t can park at the same instant
/// as the one before it.
void Simulator::walk_ladder(Shard& s) {
  const int n = shard_count();
  obs::ProfSlice* const sl = prof_slice(s.index);
  for (int i = 1; i <= pass_rungs_; ++i) {
    run_rung(s, i);
    const std::int64_t rung = rungs_done_ + i;
    clocks_[static_cast<std::size_t>(s.index)]->publish(rung);
    {
      const obs::ProfScope wait(sl, obs::ProfCat::kBarrierWait);
      for (int p = 0; p < n; ++p) {
        if (p != s.index) (void)clocks_[static_cast<std::size_t>(p)]->await(rung);
      }
    }
    const obs::ProfScope inject(sl, obs::ProfCat::kMailboxInject);
    drain_incoming(s);
  }
}

/// The last instant rung `i` of the current pass runs: base + i*L - 1, or
/// the horizon once the ladder reaches it.
TimeNs Simulator::rung_last(int i) const {
  if (lookahead_ == TimeNs::max() ||
      i > (pass_horizon_ - pass_base_).ns() / lookahead_.ns()) {
    return pass_horizon_;
  }
  return pass_base_ + TimeNs{i * lookahead_.ns() - 1};
}

/// Rung `i` on `s`: runs every event at or before the rung's last instant,
/// parks the clock just past it (at the horizon for the rung that reaches
/// it, nowhere for a drain's) and publishes the outgoing mailboxes.
void Simulator::run_rung(Shard& s, int i) {
  const TimeNs last = rung_last(i);
  shard_pass(s, last);
  const TimeNs park = last == pass_horizon_ ? last : last + TimeNs{1};
  if (park != TimeNs::max()) s.now = park;
  flush_outgoing(s.index);
}

/// The one run loop: pops and runs `s`'s events at or before `last`.  A
/// profiling slice sends every event through the attribution step and points
/// level-2 scopes at it for the pass.  Flattened so peek and the heap pops
/// inline into the loop.
[[gnu::flatten]] void Simulator::shard_pass(Shard& s, TimeNs last) {
  obs::ProfSlice* const sl = prof_slice(s.index);
  obs::ProfSlice* const prev_tls = obs::tls_prof_slice;
  if (sl != nullptr && prof_->detailed()) obs::tls_prof_slice = sl;
  const std::uint64_t ran_before = s.processed;
  while (true) {
    const Event* ev = peek(s);
    if (ev == nullptr || ev->at > last) break;
    if (sl != nullptr) {
      pop_and_run_profiled(s, *sl);
    } else {
      pop_and_run(s);
    }
  }
  if (s.processed != ran_before) s.last_event = s.now;
  obs::tls_prof_slice = prev_tls;
}

void Simulator::flush_outgoing(int src) {
  const int n = shard_count();
  for (int dst = 0; dst < n; ++dst) {
    if (dst == src) continue;
    cross_ch(src, dst).flush();
    ret_ch(src, dst).flush();
  }
}

/// Absorbs what `src` published to `dst`: crossings go into `dst`'s calendar
/// through the bulk path (ownership handoff — the packet travels, its pool
/// does not; the caller runs end_bulk), and storage `src` freed on behalf of
/// `dst`'s pool goes home via put_direct (the caller acts as the owner here,
/// so the foreign guard must not re-route it).
void Simulator::absorb(int src, int dst) {
  Shard& d = *shards_[static_cast<std::size_t>(dst)];
  cross_ch(src, dst).drain([&d](Crossing&& c) {
    UFAB_CHECK_MSG(c.at >= d.now, "cross-shard crossing violates the lookahead bound");
    push_deferred(d, c.at, c.h, c.k, UniqueFunction(DeliverEvent{c.dst, std::move(c.pkt)}));
  });
  ret_ch(src, dst).drain([](Packet*&& p) { p->origin_pool->put_direct(p); });
}

/// Absorbs everything published to this shard: the drain that ends a rung.
void Simulator::drain_incoming(Shard& s) {
  const int n = shard_count();
  for (int src = 0; src < n; ++src) {
    if (src != s.index) absorb(src, s.index);
  }
  end_bulk(s);
}

/// The profiled dispatch step.  Every event bumps its exact category counts
/// (two plain increments); only every timing_stride-th event pays clock
/// reads — t0 -> peek/migrate/pop -> t1 -> closure -> t2, attributing
/// [t0,t1) to queue_pop and [t1,t2) to the dispatch category — and the
/// export scales sampled ticks back up by count/sampled.  A clock-read pair
/// can cost tens of ns on VMs with slow TSC reads, comparable to the mean
/// event itself, so per-event timing would blow the <= 5% overhead guard.
/// The event sequence is identical to pop_and_run after a successful peek.
void Simulator::pop_and_run_profiled(Shard& s, obs::ProfSlice& sl) {
  obs::Profiler& p = *prof_;
  const bool timed = (sl.strided++ & p.timing_mask()) == 0;
  const std::int64_t t0 = timed ? obs::ProfClock::now() : 0;
  Event ev = pop_peeked(s);
  const obs::ProfCat dispatch_cat =
      ev.fn.invokes<DeliverEvent>() || ev.fn.invokes<FusedLinkDeliver>()
          ? obs::ProfCat::kDispatchDeliver
          : obs::ProfCat::kDispatchClosure;
  sl.bump(obs::ProfCat::kQueuePop);
  sl.bump(dispatch_cat);
  const std::int64_t t1 = timed ? obs::ProfClock::now() : 0;
  run_event(s, ev);
  if (timed) {
    const std::int64_t t2 = obs::ProfClock::now();
    sl.add_sampled(obs::ProfCat::kQueuePop, t1 - t0);
    sl.add_sampled(dispatch_cat, t2 - t1);
  }
  // Calendar introspection on a sim-time cadence: pure simulation state, so
  // the sample series is deterministic for a fixed seed and shard count.
  if (s.now.ns() >= p.next_sample_ns(s.index)) {
    p.add_sample(s.index,
                 obs::ProfSample{s.now.ns(), static_cast<std::uint64_t>(s.ring_size),
                                 static_cast<std::uint64_t>(s.overflow.heap.size()),
                                 s.processed, s.crossings_posted});
  }
}

/// The one entry point of run() and run_until().  A finite `t` parks every
/// clock at `t` with events at exactly `t` run; `t == TimeNs::max()` drains
/// and parks no clock at the horizon.
void Simulator::run_to(TimeNs t) {
  const std::int64_t wall_t0 = prof_ != nullptr ? obs::ProfClock::now() : 0;
  if (shards_.size() == 1) {
    Shard& s = *shards_.front();
    shard_pass(s, t);
    if (t != TimeNs::max() && t > s.now) s.now = t;
  } else {
    run_until_sharded(t);
  }
  if (prof_ != nullptr) prof_->add_run_wall(obs::ProfClock::now() - wall_t0);
#ifndef NDEBUG
  audit_occupancy();
#endif
}

TimeNs Simulator::earliest_pending() {
  TimeNs earliest = TimeNs::max();
  for (auto& s : shards_) {
    const Event* ev = peek(*s);
    if (ev != nullptr && ev->at < earliest) earliest = ev->at;
  }
  return earliest;
}

/// A drain's end: parks every clock at the latest event any shard ran (or
/// at `floor`, the common clock the drain started from, if that is later) —
/// what the plain engine's now() reads.  Rungs may have parked clocks past
/// it; with nothing pending, moving them back is safe.
void Simulator::park_at_last_event(TimeNs floor) {
  TimeNs t = floor;
  for (const auto& s : shards_) t = std::max(t, s->last_event);
  for (auto& s : shards_) s->now = t;
}

/// Reports newly injected crossings to the profiler.  Called after a pass,
/// when posted == injected, so the posted total *is* the injected total.
void Simulator::note_injected_progress() {
  if (prof_ == nullptr) return;
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->crossings_posted;
  prof_->note_injected(total - injected_noted_);
  injected_noted_ = total;
}

/// The epoch loop: one pass per coordinator barrier until nothing is
/// pending at or before `t` (`t == TimeNs::max()` drains).  Every pass
/// starts with all clocks equal and every mailbox drained.
void Simulator::run_until_sharded(TimeNs t) {
  ensure_exec_started();
  const ShardScope scope = scoped(0);
  const TimeNs start = shards_.front()->now;
  while (true) {
    const TimeNs earliest = earliest_pending();
    if (earliest == TimeNs::max() || earliest > t) break;
    // Fast-forward: idle gaps cost one pass, not (gap / lookahead) of them.
    pass_base_ = std::max(shards_.front()->now, earliest);
    pass_horizon_ = t;
    pass_rungs_ = 1;
    while (pass_rungs_ < epoch_windows_ && rung_last(pass_rungs_) != t) ++pass_rungs_;
    // The pass spans base to its last rung's parking point; a drain's
    // unbounded rung spans no finite epoch, so it notes none.
    const TimeNs last = rung_last(pass_rungs_);
    const TimeNs end = last == t ? t : last + TimeNs{1};
    if (prof_ != nullptr && end != TimeNs::max()) {
      prof_->note_epoch((end - pass_base_).ns());
      prof_->note_windows(pass_rungs_);
    }
    run_pass();
    note_injected_progress();
  }
  if (t == TimeNs::max()) {
    park_at_last_event(start);
  } else {
    // Nothing is left at or before t: idle clocks catch up to the horizon.
    for (auto& s : shards_) s->now = std::max(s->now, t);
  }
}

void Simulator::enable_profiling(obs::ProfOptions opts) {
  UFAB_CHECK_MSG(!exec_started_, "enable_profiling after a sharded run started");
  UFAB_CHECK_MSG(prof_ == nullptr, "enable_profiling called twice");
  UFAB_CHECK_MSG(static_cast<int>(shards_.size()) <= obs::Profiler::kMaxShards,
                 "profiler shard capacity out of sync with the engine");
  prof_ = std::make_unique<obs::Profiler>(opts);
}

std::string Simulator::profile_json() const {
  if (prof_ == nullptr) return {};
  obs::ProfContext ctx;
  ctx.shard_count = shard_count();
  ctx.threaded = threaded();
  ctx.lookahead_ns = lookahead_ == TimeNs::max() ? -1 : lookahead_.ns();
  ctx.epoch_windows = epoch_windows_;
  ctx.handoff_max_batch = handoff_max_batch();
  ctx.mailbox_flushes = mailbox_flushes_total();
  ctx.events_per_shard.reserve(shards_.size());
  ctx.crossings_per_shard.reserve(shards_.size());
  for (const auto& s : shards_) {
    ctx.events_per_shard.push_back(s->processed);
    ctx.crossings_per_shard.push_back(s->crossings_posted);
  }
  return prof_->to_json(ctx);
}

}  // namespace ufab::sim
