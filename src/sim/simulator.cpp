// Execution for Simulator: the one run loop (shard_pass) and the sharded
// (conservative parallel DES) epoch loop.  Serial runs, epoch windows,
// solo rounds and final inclusive rounds all pop events through shard_pass.
// The safety invariant is the same at every granularity: a crossing posted
// at wire-exit time tau arrives at tau + prop >= tau + lookahead, which is
// at or past the boundary of the lookahead window that produced it, so a
// shard processing events strictly before a boundary can never miss a
// remote event (DESIGN.md §9).
//
// What §12 changed is how boundaries are *paid for*:
//
//  * A pass spans many windows per coordinator barrier
//    (run_pass_windowed).  Inside the pass each shard walks the common
//    boundary ladder b_1 < b_2 < ... on its own: run events < b_w, flush the
//    outgoing mailboxes (one release-store per non-empty channel), publish
//    its clock = b_w, spin until every peer's clock reached b_w, drain
//    incoming mailboxes, continue.  Because a peer flushes *before*
//    publishing, acquiring its clock at b_w also acquires every crossing it
//    posted before b_w — and any such crossing delivers at or after b_w, so
//    draining at b_w is always early enough.  One condvar barrier (~µs) per
//    set_epoch_windows() windows (16) instead of one per window.
//
//  * When exactly one shard has pending events the coordinator skips the
//    barrier machinery entirely (solo_run): it executes that shard inline
//    with a stride of the shard's *outgoing* cut lookahead (no outgoing cut
//    links: straight to the limit), routing any crossings itself, and falls
//    back to synchronized epochs at the first boundary where a crossing
//    woke a peer — before the woken shard executes anything, so nothing is
//    ever missed.
//
//  * The final inclusive stretch before a horizon uses single-boundary
//    coordinator rounds (run_pass(t, true) + inject_crossings loops): at the
//    horizon the window ladder degenerates (events at exactly t can emit
//    crossings at exactly t), and those rounds carry the termination
//    argument.
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
    pass_side(s);
    const std::int64_t parked_at = steady_ns();
    const obs::ProfScope wait(sl, obs::ProfCat::kBarrierWait);
    barrier_->arrive_done();
    if (!barrier_->wait_for_pass(gen)) return;
    // Written between passes is safe: the coordinator only reads this while
    // workers are parked, ordered through the barrier's mutex.
    s.barrier_wait_ns += steady_ns() - parked_at;
  }
}

/// One shard's side of the current pass: a worker thread's, or the
/// coordinator's for shard 0.
void Simulator::pass_side(Shard& s) {
  if (pass_windows_ > 0) {
    windowed_shard_pass(s);
  } else {
    shard_pass(s, pass_boundary_, pass_inclusive_);
  }
}

/// Threaded pass: releases the workers, runs shard 0's side on the
/// coordinator (already scoped to shard 0 by the caller), then waits for
/// every worker.  The coordinator's stall is the tail it spends waiting for
/// the slowest worker — the direct read on "does sharding pay".
void Simulator::threaded_pass() {
  barrier_->release(++pass_gen_);
  pass_side(*shards_.front());
  const obs::ProfScope wait(prof_slice(0), obs::ProfCat::kBarrierWait);
  barrier_->wait_all_done();
}

/// Runs one synchronized single-boundary pass on every shard.  Sequential
/// mode: the coordinator runs each shard's pass in index order —
/// byte-identical schedule, no concurrency.
void Simulator::run_pass(TimeNs boundary, bool inclusive) {
  pass_boundary_ = boundary;
  pass_inclusive_ = inclusive;
  pass_windows_ = 0;
  if (exec_threads_) {
    threaded_pass();
    return;
  }
  for (auto& s : shards_) {
    const ShardScope scope = scoped(s->index);
    shard_pass(*s, boundary, inclusive);
  }
}

/// Runs one multi-window pass: every shard walks `windows` boundaries of
/// length lookahead_ starting at `base`, self-synchronizing at each through
/// the published clocks — ONE coordinator barrier for the whole pass.
/// Sequential mode replays the identical structure in index order: for each
/// window, every shard runs to the boundary and flushes, then every shard
/// drains — the same flush-before-drain dataflow, hence the same schedule.
void Simulator::run_pass_windowed(TimeNs base, int windows) {
  pass_base_ = base;
  pass_windows_ = windows;
  if (exec_threads_) {
    threaded_pass();
  } else {
    TimeNs b = base;
    for (int w = 0; w < windows; ++w) {
      b = b + lookahead_;
      for (auto& s : shards_) {
        const ShardScope scope = scoped(s->index);
        run_window(*s, b);
      }
      const obs::ProfScope inject(prof_slice(0), obs::ProfCat::kMailboxInject);
      for (auto& s : shards_) drain_incoming(*s);
    }
  }
  pass_windows_ = 0;
}

/// One shard's side of a windowed pass (worker thread, or the coordinator
/// for shard 0).  The boundary ladder is common to all shards, so publishing
/// the clock after flushing makes "peer clock >= b" imply "peer's crossings
/// relevant to my next window are visible" — the message-passing pattern the
/// mailboxes' single release-store is designed around.
void Simulator::windowed_shard_pass(Shard& s) {
  const int n = shard_count();
  obs::ProfSlice* const sl = prof_slice(s.index);
  TimeNs b = pass_base_;
  for (int w = 0; w < pass_windows_; ++w) {
    b = b + lookahead_;
    run_window(s, b);
    clocks_[static_cast<std::size_t>(s.index)]->publish(b.ns());
    {
      const obs::ProfScope wait(sl, obs::ProfCat::kBarrierWait);
      for (int p = 0; p < n; ++p) {
        if (p != s.index) (void)clocks_[static_cast<std::size_t>(p)]->await(b.ns());
      }
    }
    const obs::ProfScope inject(sl, obs::ProfCat::kMailboxInject);
    drain_incoming(s);
  }
}

/// One window step: runs `s` strictly below `boundary`, parks its clock
/// there (events at exactly `boundary` run in the next window) and
/// publishes its outgoing mailboxes.
void Simulator::run_window(Shard& s, TimeNs boundary) {
  shard_pass(s, boundary, false);
  if (boundary > s.now) s.now = boundary;
  flush_outgoing(s.index);
}

/// The one run loop: pops and runs `s`'s events before `boundary` (at or
/// before it when `inclusive`).  A profiling slice sends every event through
/// the attribution step and points level-2 scopes at it for the pass.
/// Flattened so peek and the heap pops inline into the loop.
[[gnu::flatten]] void Simulator::shard_pass(Shard& s, TimeNs boundary, bool inclusive) {
  // Exclusive boundaries are window ends (>= lookahead > 0), so "at >=
  // boundary" is "at > boundary - 1": one comparison per event either way.
  const TimeNs last = inclusive ? boundary : boundary - TimeNs{1};
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
/// so the foreign guard must not re-route it).  Returns the earliest
/// injected arrival, TimeNs::max() when nothing crossed.
TimeNs Simulator::absorb(int src, int dst) {
  Shard& d = *shards_[static_cast<std::size_t>(dst)];
  TimeNs earliest = TimeNs::max();
  cross_ch(src, dst).drain([&d, &earliest](Crossing&& c) {
    UFAB_CHECK_MSG(c.at >= d.now, "cross-shard crossing violates the lookahead bound");
    earliest = std::min(earliest, c.at);
    push_deferred(d, c.at, c.h, c.k, UniqueFunction(DeliverEvent{c.dst, std::move(c.pkt)}));
  });
  ret_ch(src, dst).drain([](Packet*&& p) { p->origin_pool->put_direct(p); });
  return earliest;
}

/// Absorbs everything published to this shard.
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
    shard_pass(s, t, true);
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

/// Parks every clock at `t` (never backwards).  A drain's horizon
/// (TimeNs::max()) parks nothing.
void Simulator::set_clocks(TimeNs t) {
  if (t == TimeNs::max()) return;
  for (auto& s : shards_) s->now = std::max(s->now, t);
}

/// A drain's end: parks every clock at the latest event any shard ran (or
/// at `floor`, the common clock the drain started from, if that is later) —
/// what the plain engine's now() reads.  Window boundaries may have parked
/// clocks past it; with nothing pending, moving them back is safe.
void Simulator::park_at_last_event(TimeNs floor) {
  TimeNs t = floor;
  for (const auto& s : shards_) t = std::max(t, s->last_event);
  for (auto& s : shards_) s->now = t;
}

/// The shard holding every pending event, or -1 when zero or several shards
/// have work.  Only meaningful between passes (mailboxes drained).
int Simulator::single_active_shard() const {
  int active = -1;
  for (const auto& s : shards_) {
    if (s->ring_size > 0 || !s->overflow.empty()) {
      if (active >= 0) return -1;
      active = s->index;
    }
  }
  return active;
}

/// Rewinds mailbox positions before they near the chunk-index wrap.  Called
/// between passes, when every channel is drained, so the reset precondition
/// (empty) holds by construction.
void Simulator::reset_channels() {
  for (auto& ch : cross_ch_) {
    if (ch != nullptr) ch->maybe_reset();
  }
  for (auto& ch : ret_ch_) {
    if (ch != nullptr) ch->maybe_reset();
  }
}

/// Reports newly injected crossings to the profiler.  Called at points where
/// posted == injected (after a pass's final drain), so the posted total *is*
/// the injected total.
void Simulator::note_injected_progress() {
  if (prof_ == nullptr) return;
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->crossings_posted;
  prof_->note_injected(total - injected_noted_);
  injected_noted_ = total;
}

/// Barrier-skip fast path: exactly one shard has pending events, so the
/// coordinator runs it inline — no barrier, no clock publishing — striding
/// by the shard's *outgoing* cut lookahead (nothing it does before
/// boundary can be seen elsewhere before boundary) and routing any crossings
/// itself.  Ends at the first boundary where a crossing woke a peer: the
/// woken shard has executed nothing yet, so falling back to synchronized
/// epochs there preserves the schedule exactly.  Returns whether any events
/// ran (false lets the caller take the ordinary path this iteration).
bool Simulator::solo_run(int x, TimeNs limit) {
  Shard& s = *shards_[static_cast<std::size_t>(x)];
  const TimeNs out_la =
      shard_out_la_.empty() ? lookahead_ : shard_out_la_[static_cast<std::size_t>(x)];
  const ShardScope scope = scoped(x);
  const int n = shard_count();
  bool progressed = false;
  while (true) {
    const Event* ev = peek(s);
    if (ev == nullptr) break;
    if (out_la == TimeNs::max()) {
      // No outgoing cut links: nothing this shard runs can wake a peer.  Run
      // straight to the limit, inclusively, matching the serial engine's
      // treatment of events at exactly t.
      shard_pass(s, limit, true);
      if (limit != TimeNs::max() && limit > s.now) s.now = limit;
      if (prof_ != nullptr) prof_->note_barrier_skip();
      progressed = true;
      break;
    }
    if (ev->at >= limit) break;
    const TimeNs boundary = ev->at + out_la;
    if (boundary >= limit) break;  // final stretch: the epoch loop owns it
    run_window(s, boundary);
    if (prof_ != nullptr) prof_->note_barrier_skip();
    progressed = true;
    bool woke = false;
    {
      const obs::ProfScope inject(prof_slice(0), obs::ProfCat::kMailboxInject);
      for (int dst = 0; dst < n; ++dst) {
        if (dst == x) continue;
        if (absorb(x, dst) != TimeNs::max()) woke = true;
        end_bulk(*shards_[static_cast<std::size_t>(dst)]);
      }
    }
    if (woke) break;
  }
  note_injected_progress();
  return progressed;
}

/// Coordinator-only injection round (workers parked): flushes and absorbs
/// every mailbox.  Returns whether any injected crossing fires at or before
/// `le_mark` — the final-epoch loop uses this to know it must run another
/// inclusive pass.
bool Simulator::inject_crossings(TimeNs le_mark) {
  const obs::ProfScope inject(prof_slice(0), obs::ProfCat::kMailboxInject);
  TimeNs earliest = TimeNs::max();
  const int n = shard_count();
  for (int src = 0; src < n; ++src) {
    // The coordinator acts as writer here (flush) — safe because every
    // worker is parked at the barrier, which orders their posts before
    // this read-modify of the writer cursor.
    flush_outgoing(src);
    for (int dst = 0; dst < n; ++dst) {
      if (src != dst) earliest = std::min(earliest, absorb(src, dst));
    }
  }
  for (auto& s : shards_) end_bulk(*s);
  // TimeNs::max() means nothing crossed, even when le_mark is a drain's.
  return earliest != TimeNs::max() && earliest <= le_mark;
}

/// The one epoch loop: runs every event at or before `t` across all
/// shards.  `t == TimeNs::max()` drains.  Every run starts and ends with all
/// clocks equal.
void Simulator::run_until_sharded(TimeNs t) {
  ensure_exec_started();
  const ShardScope scope = scoped(0);
  const TimeNs start = shards_.front()->now;
  while (true) {
    // Between passes every mailbox is drained; clocks may be staggered after
    // a solo round but never exceed the earliest pending event.
    const TimeNs clock = shards_.front()->now;
    if (clock >= t) break;
    reset_channels();
    const TimeNs earliest = earliest_pending();
    if (earliest == TimeNs::max() || earliest > t) {
      // Nothing left at or before the horizon (events at exactly t
      // included); TimeNs::max() is nothing left at all, a drain's end.
      set_clocks(t);
      break;
    }
    if (const int x = single_active_shard(); x >= 0 && solo_run(x, t)) continue;
    // Fast-forward: idle gaps cost one pass, not (gap / lookahead) of them.
    const TimeNs base = std::max(clock, earliest);
    if (lookahead_ == TimeNs::max() || t - base <= lookahead_) {
      // Final epoch: process inclusively up to t, then loop — a crossing
      // produced at tau in (t - lookahead, t] can arrive exactly at t and
      // the serial engine would fire it, so keep passing until no injected
      // crossing lands at or before t.  Terminates: second-round events all
      // run at exactly t, and their crossings land strictly after t.  A
      // drain's unbounded pass spans no finite epoch, so it notes none.
      if (prof_ != nullptr && t != TimeNs::max()) prof_->note_epoch((t - base).ns());
      run_pass(t, true);
      set_clocks(t);
      while (inject_crossings(t)) run_pass(t, true);
      note_injected_progress();
      break;
    }
    // Multi-window epoch: as many full windows as fit strictly below t (the
    // final stretch needs the inclusive rounds above), capped by
    // epoch_windows_.
    const std::int64_t la = lookahead_.ns();
    const std::int64_t span = t.ns() - base.ns();  // > la here
    const int w = static_cast<int>(
        std::min<std::int64_t>(epoch_windows_, (span - 1) / la));
    if (prof_ != nullptr) {
      prof_->note_epoch(w * la);
      prof_->note_windows(w);
    }
    run_pass_windowed(base, w);
    set_clocks(base + TimeNs{w * la});
    note_injected_progress();
  }
  if (t == TimeNs::max()) park_at_last_event(start);
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
