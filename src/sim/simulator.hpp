// The discrete-event engine.
//
// A future-event list per shard: events are (time, h, k, closure) tuples
// ordered by time with deterministic tie-breaking, which makes runs exactly
// reproducible for a fixed seed.
//
// Each shard's list is a two-tier bucketed calendar queue rather than one
// global binary heap.  Near-horizon events (within ~0.5 ms of `now`) land in
// a ring of 512 ns time buckets; far-horizon events go to an overflow tier
// and migrate into the ring as the clock approaches them.  Each bucket keeps
// its events in an append-only slot vector (reset whenever the bucket drains,
// which at 512 ns a bucket is constantly) and orders them through a small
// heap of (time, h, k, slot) keys — sifts compare and move 24-byte keys
// without touching the events themselves, and a closure is moved exactly once
// in (into its slot) and once out (when it fires).  A 1024-bit occupancy
// bitmap beside the ring marks the non-empty buckets, so finding the next
// event across idle simulated time costs one count-trailing-zeros per 64
// buckets instead of a step per empty bucket.
//
// Ordering is canonical: h is a mixed 64-bit identity of the *scheduling
// parent* (the event whose closure called at()/after(), or a fixed root id
// for setup code) and k counts that parent's children in order.  The key does
// not depend on global scheduling interleavings — only on the causal tree,
// which is the same no matter how events are distributed across shards — so a
// plain simulator, a 1-shard run, and a 4-shard run of the same experiment
// fire events in exactly the same order.  Within one parent, ties keep FIFO
// order (k increments); across parents at the same instant, the mixed
// identity is the arbiter.  (A 64-bit hash collision between two distinct
// parents scheduling at the same nanosecond would fall through to the slot
// index; at fig17 scale the probability is ~1e-10 per run and any such run
// would still be deterministic, just not provably shard-count-invariant.)
//
// Sharded execution (configure_shards(n > 1)) is conservative parallel DES
// with one epoch protocol, a rung ladder: shards advance in lockstep through
// rungs one lookahead long (the min propagation delay over cut links), the
// last of which ends at the run's horizon.  Because a crossing arrives a
// full propagation delay after the event that posts it, no crossing can land
// inside the rung that produced it, so a shard never misses a remote event.
// Cross-shard packets are posted into per-(src,dst) SPSC mailboxes (batched
// publication, see shard_sync.hpp) and *travel*: the destination shard takes
// ownership of the packet itself — no clone — and a later release on a
// foreign shard routes back to the owner pool through a return mailbox
// (PacketPool's foreign guard).  An *epoch* (one coordinator barrier) spans
// up to 16 rungs: inside a pass each shard self-synchronizes at rung ends
// through published per-shard progress (flush mailboxes, publish, spin until
// peers reach the rung, drain incoming — DESIGN.md §12), which amortizes the
// ~µs condvar barrier over 16 rungs of ~100 ns spins.  The calendar stays
// inline here; the one run loop and the ladder live in simulator.cpp.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/assert.hpp"
#include "src/core/shard_context.hpp"
#include "src/core/time.hpp"
#include "src/core/unique_function.hpp"
#include "src/obs/profiler.hpp"
#include "src/sim/packet.hpp"
#include "src/sim/packet_pool.hpp"
#include "src/sim/shard_sync.hpp"

namespace ufab::sim {

class Node;

/// How a multi-shard configuration executes its epochs.
enum class ShardExec : std::uint8_t {
  kAuto,        ///< Worker threads when the host has >1 CPU, else sequential.
  kThreads,     ///< One persistent worker thread per non-coordinator shard.
  kSequential,  ///< Coordinator runs every shard's pass in index order.
};

class Simulator {
 public:
  Simulator() { shards_.push_back(std::make_unique<Shard>(0)); }
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimeNs now() const { return active().now; }

  /// Schedules `fn` at absolute time `t` (>= now) on the active shard. The
  /// closure may be move-only, so events can own what they deliver (packets
  /// in flight).
  void at(TimeNs t, UniqueFunction fn) {
    Shard& s = active();
    UFAB_CHECK_MSG(t >= s.now, "scheduling into the past");
    if (s.in_event) {
      push(s, t, s.cur_id, s.cur_k++, std::move(fn));
    } else {
      // Setup/root context: all shards share one root identity and one FIFO
      // counter, so setup code keeps registration order across shards.
      push(s, t, kRootIdentity, root_k_++, std::move(fn));
    }
  }

  /// Schedules `fn` after `delay` from now.
  void after(TimeNs delay, UniqueFunction fn) { at(now() + delay, std::move(fn)); }

  /// Runs until every event list (and outbox) drains, leaving now() at the
  /// last event that ran — on every shard of a sharded engine alike.
  void run() { run_to(TimeNs::max()); }

  /// Runs all events with time <= `t`, then sets now to `t`.  `t ==
  /// TimeNs::max()` is run().
  void run_until(TimeNs t) { run_to(t); }

  [[nodiscard]] std::uint64_t events_processed() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->processed;
    return total;
  }
  [[nodiscard]] std::size_t pending() const {
    std::size_t total = 0;
    for (const auto& s : shards_) total += s->ring_size + s->overflow.heap.size();
    for (const auto& ch : cross_ch_) {
      if (ch != nullptr) total += ch->size();
    }
    return total;
  }

  /// The active shard's packet freelist: packets made through it are recycled
  /// on delivery/drop instead of freed (see PacketPool).  Declared before the
  /// event tiers so pending events' packets are destroyed first on teardown.
  [[nodiscard]] PacketPool& packet_pool() { return active().pool; }

  // --- sharding ---

  /// Adds event loops: `shards` in total, synchronized in epochs of
  /// `lookahead` (the min prop delay over cut links; TimeNs::max() when no
  /// link is cut).  Ordering is unchanged — a 1-shard call only records the
  /// lookahead and executor.  Must be called once, before any event is
  /// scheduled.
  void configure_shards(int shards, TimeNs lookahead, ShardExec exec = ShardExec::kAuto);

  [[nodiscard]] int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Always true: canonical (h, k) ordering is the engine's only mode.
  [[nodiscard]] bool canonical_order() const { return true; }

  /// Epoch synchronization (DESIGN.md §12): one coordinator barrier spans up
  /// to `windows` rungs of the lookahead ladder (shards self-synchronize at
  /// the interior rung ends through published progress).  The schedule is
  /// byte-identical for every width (canonical (h,k) keys are partition- and
  /// batching-invariant).  Must be called before the first run.
  void set_epoch_windows(int windows) {
    UFAB_CHECK_MSG(!exec_started_, "set_epoch_windows after a run started");
    UFAB_CHECK(windows >= 1);
    epoch_windows_ = windows;
  }

  /// Forces sequential (single-thread) epoch execution.  Sequential epochs
  /// fire the exact same schedule as threaded ones, so this is a safety
  /// valve, not a semantic switch: callbacks that touch cross-shard state
  /// (queue sampling across all links, the fault plane) call it during
  /// setup.  Must happen before the first run.  `reason` labels who demanded
  /// it — recorded (deduplicated) for the `sim.forced_sequential` gauge and
  /// logged once per reason when a multi-shard run is being downgraded, so a
  /// silently single-threaded soak is visible instead of mysterious.
  void require_sequential(const char* reason = "unspecified");

  /// Distinct reasons passed to require_sequential(), in first-call order.
  [[nodiscard]] const std::vector<std::string>& sequential_reasons() const {
    return sequential_reasons_;
  }

  /// True once a multi-shard run has started with worker threads.
  [[nodiscard]] bool threaded() const { return exec_started_ && exec_threads_; }

  /// RAII guard homing scheduling calls onto one shard: while alive, at() /
  /// after() / packet_pool() on this thread resolve to `shard`.  Setup code
  /// uses it to place per-host/per-switch work on the owning shard; an event
  /// may scope onto its own shard only (see scoped()).
  class [[nodiscard]] ShardScope {
   public:
    ~ShardScope() {
      tls_ = prev_;
      ufab::tls_shard_index = prev_index_;
    }
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;

   private:
    friend class Simulator;
    ShardScope(Simulator* sim, int shard) : prev_(tls_), prev_index_(ufab::tls_shard_index) {
      tls_ = Active{sim, sim->shards_[static_cast<std::size_t>(shard)].get()};
      ufab::tls_shard_index = shard;
    }
    struct Active {
      Simulator* sim;
      void* shard;
    };
    Active prev_;
    int prev_index_;
  };

  /// Scoping onto another shard from inside a running event fails loudly:
  /// whatever the event scheduled there would bypass the conservative
  /// protocol (the other shard may already have run past it, or run
  /// concurrently).  Cross-shard work travels as a crossing over a cut link.
  [[nodiscard]] ShardScope scoped(int shard) {
    UFAB_CHECK(shard >= 0 && shard < shard_count());
    const Shard& cur = active();
    UFAB_CHECK_MSG(!cur.in_event || cur.index == shard,
                   "an event scoped onto another shard: cross-shard work must travel over a "
                   "cut link");
    return ShardScope(this, shard);
  }

  /// Posts a packet crossing a cut link into `dst_shard`'s calendar: the
  /// delivery fires at absolute time `at` with the same ordering key the
  /// event would have had as a local after() call, so the merged schedule is
  /// independent of the partition.  The packet itself is handed over —
  /// ownership transfers to the destination shard; its storage stays with
  /// the origin pool and returns there through the return mailboxes when the
  /// destination releases it.  Only valid from inside a running event.
  void post_cross(int dst_shard, TimeNs at, Node* dst, PacketPtr pkt) {
    const ChildKey key = alloc_child_key();
    post_cross_keyed(dst_shard, at, dst, std::move(pkt), key.h, key.k);
  }

  // --- explicit-key scheduling (the link pipe, DESIGN.md §13.1) ---

  /// A raw (h, k) ordering key, before the event_identity finalizer.
  struct ChildKey {
    std::uint64_t h;
    std::uint32_t k;
  };

  /// Consumes and returns the key the next at()/after() call from this
  /// context would have stamped — without scheduling anything.  A link
  /// commits each packet under one such key; the packet's delivery (and its
  /// wire-exit event, if any) carries it.
  [[nodiscard]] ChildKey alloc_child_key() {
    Shard& s = active();
    if (s.in_event) return ChildKey{s.cur_id, s.cur_k++};
    return ChildKey{kRootIdentity, root_k_++};
  }

  /// Schedules `fn` at `t` under an explicit raw key instead of one stamped
  /// from the current context (a link's deliveries and wire exits).
  void at_keyed(TimeNs t, std::uint64_t h, std::uint32_t k, UniqueFunction fn) {
    Shard& s = active();
    UFAB_CHECK_MSG(t >= s.now, "scheduling into the past");
    push(s, t, h, k, std::move(fn));
  }

  /// post_cross with an explicit key: a cut link posts each crossing under
  /// its packet's commit key — at commit time, or from the packet's wire-exit
  /// event.  Safe for the conservative sync: `at` exceeds the posting time by
  /// at least prop >= lookahead, so the crossing still lands past the rung
  /// that posted it.  Must be called from inside a running event: a
  /// root-context post would sit unflushed where earliest_pending() cannot
  /// see it.
  void post_cross_keyed(int dst_shard, TimeNs at, Node* dst, PacketPtr pkt,
                        std::uint64_t h, std::uint32_t k) {
    UFAB_PROF_SCOPE(obs::ProfCat::kMailboxPost);
    Shard& s = active();
    UFAB_CHECK_MSG(s.in_event, "crossing posted outside an event");
    UFAB_CHECK(dst_shard >= 0 && dst_shard < shard_count() && dst_shard != s.index);
    ++s.crossings_posted;
    cross_ch(s.index, dst_shard).post(Crossing{at, h, k, dst_shard, dst, std::move(pkt)});
  }

  /// Opaque handle to the shard the calling context schedules onto.  A link
  /// captures it at its first commit so later reads — possibly made from
  /// another shard's context under sequential execution (soak's queue
  /// sampler, fabric-wide callbacks) — settle it by its own shard's clock.
  using ShardHandle = const void*;
  [[nodiscard]] ShardHandle active_shard_handle() const { return &active(); }
  /// The clock of `handle`'s shard.
  [[nodiscard]] TimeNs now_of(ShardHandle handle) const {
    return static_cast<const Shard*>(handle)->now;
  }

  /// Always true: every link runs the one pipe serializer (DESIGN.md §13.1).
  [[nodiscard]] bool fused_links() const { return true; }

  // --- per-shard introspection (obs gauges, tests; read between runs) ---
  [[nodiscard]] std::uint64_t shard_events_processed(int shard) const {
    return shard_at(shard).processed;
  }
  [[nodiscard]] std::uint64_t shard_crossings_out(int shard) const {
    return shard_at(shard).crossings_posted;
  }
  [[nodiscard]] std::int64_t shard_barrier_wait_ns(int shard) const {
    return shard_at(shard).barrier_wait_ns;
  }
  /// Drain batches absorbed by `shard` across its incoming cross mailboxes.
  [[nodiscard]] std::uint64_t shard_outbox_drains(int shard) const {
    std::uint64_t total = 0;
    for (int src = 0; src < shard_count(); ++src) {
      if (src != shard) total += cross_ch(src, shard).drains();
    }
    return total;
  }
  /// Largest single drain batch `shard` absorbed from any peer.
  [[nodiscard]] std::size_t shard_outbox_max_batch(int shard) const {
    std::size_t m = 0;
    for (int src = 0; src < shard_count(); ++src) {
      if (src != shard) m = std::max(m, cross_ch(src, shard).max_drain_batch());
    }
    return m;
  }
  /// Largest single drain batch over every cross mailbox — the per-boundary
  /// handoff traffic high-water mark the profiler exports.
  [[nodiscard]] std::size_t handoff_max_batch() const {
    std::size_t m = 0;
    for (const auto& ch : cross_ch_) {
      if (ch != nullptr) m = std::max(m, ch->max_drain_batch());
    }
    return m;
  }
  /// Batch publications (one release-store each) over every cross mailbox.
  [[nodiscard]] std::uint64_t mailbox_flushes_total() const {
    std::uint64_t total = 0;
    for (const auto& ch : cross_ch_) {
      if (ch != nullptr) total += ch->flushes();
    }
    return total;
  }
  [[nodiscard]] const PacketPool& shard_pool(int shard) const { return shard_at(shard).pool; }

  // --- engine self-profiling (see src/obs/profiler.hpp) ---

  /// Attaches the profiling plane.  Must happen before the first run; from
  /// then on the run loop sends every event through its attribution step
  /// (identical schedule, plus wall-clock attribution).  Passive by
  /// construction: profiling never schedules events or consumes randomness,
  /// so results are byte-identical to an unprofiled run
  /// (tests/obs/profiler_test.cpp).
  void enable_profiling(obs::ProfOptions opts = {});

  /// The attached profiler, or nullptr when profiling is disabled.
  [[nodiscard]] obs::Profiler* profiler() { return prof_.get(); }
  [[nodiscard]] const obs::Profiler* profiler() const { return prof_.get(); }

  /// The per-run profile artifact (ufab-profile-v1 JSON): run context plus
  /// the shard x scope time matrix.  Empty string when profiling is off.
  [[nodiscard]] std::string profile_json() const;

  /// Raw parent identity of events scheduled from setup code (outside any
  /// event); their k is a FIFO counter shared by every shard.
  static constexpr std::uint64_t kRootIdentity = 0x52EEDF00DDEADB01ull;

  /// The canonical identity an event gets from parent identity `h` and child
  /// index `k` (splitmix64-style finalizer).  Exposed so tests can mirror
  /// the engine's tie-break order in a reference queue.
  [[nodiscard]] static std::uint64_t event_identity(std::uint64_t h, std::uint32_t k) {
    std::uint64_t x = h + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(k) + 1);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

 private:
  struct Event {
    TimeNs at;
    std::uint64_t h;
    std::uint32_t k;
    UniqueFunction fn;
  };

  /// Bucket-heap key: the event's full order key plus its slot index, so
  /// sifting compares and moves these 24-byte entries only and never touches
  /// the (much larger) events.
  struct HeapEntry {
    std::int64_t at;
    std::uint64_t h;
    std::uint32_t k;
    std::uint32_t idx;
  };

  /// One calendar bucket: `heap` is a binary min-heap of HeapEntry keys over
  /// the events stored in `slots`.  For ring buckets, slots are append-only
  /// while the bucket has pending events and the vector resets (keeping
  /// capacity) every time the bucket drains; at 512 ns per bucket that
  /// happens constantly, so `slots` stays small and a steady-state bucket
  /// allocates nothing.  The overflow tier instead recycles dead slots
  /// through `free_idx` (see bucket_push<kRecycle>): recurring timers can
  /// keep its heap non-empty for an entire run, so without reuse the slot
  /// vector would grow with every far-scheduled event.  Recycling costs a
  /// branch per push/pop, which measured slower on the ring hot path —
  /// hence the compile-time split.
  struct Bucket {
    static constexpr std::uint32_t kNoFixup = 0xFFFFFFFFu;

    std::vector<Event> slots;
    std::vector<HeapEntry> heap;
    std::vector<std::uint32_t> free_idx;  ///< Overflow tier only: dead slots.
    /// Bulk-insert marker: heap size before the first deferred append of the
    /// current drain batch (kNoFixup when no fixup is pending).  Entries at
    /// or past it are appended un-heapified and restored in one end_bulk()
    /// sweep — O(batch·log n) sifts or one make_heap instead of a push_heap
    /// per crossing.
    std::uint32_t fixup_from = kNoFixup;
    [[nodiscard]] bool empty() const { return heap.empty(); }
  };

  /// One cross-shard packet handoff, carrying the exact ordering key the
  /// delivery event will use in the destination calendar.
  struct Crossing {
    TimeNs at;
    std::uint64_t h;
    std::uint32_t k;
    int dst_shard;
    Node* dst;
    PacketPtr pkt;
  };

  static constexpr int kBucketShift = 9;  ///< 512 ns per bucket.
  static constexpr std::uint64_t kNumBuckets = 1024;  ///< ~0.5 ms near horizon.
  static constexpr std::uint64_t kOccupancyWords = kNumBuckets / 64;
  static constexpr int kMaxShards = 64;

  /// One event loop: its own clock, calendar, packet pool, and outbox.  The
  /// pool is declared first so the event tiers (whose pending closures own
  /// packets) are destroyed while the pool is still alive.
  struct Shard {
    explicit Shard(int idx) : index(idx), ring(kNumBuckets) {}

    int index;
    PacketPool pool;
    TimeNs now = TimeNs::zero();
    std::uint64_t processed = 0;
    std::vector<Bucket> ring;
    std::size_t ring_size = 0;
    std::uint64_t cursor = 0;     ///< No ring events live in buckets before this.
    /// Bit i set iff ring[i] holds events: set by ring_push/push_deferred,
    /// cleared by ring_pop when a pop empties the bucket.
    std::uint64_t occupied[kOccupancyWords] = {};
    bool peeked_overflow = false;  ///< Tier of the last peek() result.
    Bucket overflow;

    /// Time of the last event this shard ran (clocks park past it at rung
    /// ends; a drain parks every clock at the latest one).
    TimeNs last_event = TimeNs::zero();

    // Scheduling context (the currently executing event).
    std::uint64_t cur_id = 0;
    std::uint32_t cur_k = 0;
    bool in_event = false;

    // Cross-shard machinery (the mailboxes themselves are per-(src,dst)
    // simulator members; see cross_ch_/ret_ch_).
    std::uint64_t crossings_posted = 0;
    std::int64_t barrier_wait_ns = 0;  ///< Worker idle time at epoch barriers.
    /// Buckets with pending bulk-insert fixups (scratch; owner-thread only).
    std::vector<Bucket*> touched;
  };

  [[nodiscard]] static std::uint64_t abs_bucket(TimeNs t) {
    return static_cast<std::uint64_t>(t.ns()) >> kBucketShift;
  }

  /// Heap predicate for std::push_heap/std::pop_heap (max-heap semantics):
  /// "a sorts after b", so the heap top is the earliest (time, h, k).  A
  /// functor type, not a function: passing a function pointer would make
  /// every sift comparison an indirect call (measured at >1e9 calls per
  /// fig17 run), while a stateless functor inlines into the sift loops.
  struct Later {
    [[nodiscard]] bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.h != b.h) return a.h > b.h;
      if (a.k != b.k) return a.k > b.k;
      return a.idx > b.idx;
    }
  };

  template <bool kRecycle>
  static void bucket_push(Bucket& b, TimeNs t, std::uint64_t h, std::uint32_t k,
                          UniqueFunction&& fn) {
    auto idx = static_cast<std::uint32_t>(b.slots.size());
    if constexpr (kRecycle) {
      if (!b.free_idx.empty()) {
        idx = b.free_idx.back();
        b.free_idx.pop_back();
        b.slots[idx] = Event{t, h, k, std::move(fn)};
      } else {
        b.slots.emplace_back(t, h, k, std::move(fn));
      }
    } else {
      b.slots.emplace_back(t, h, k, std::move(fn));
    }
    b.heap.push_back(HeapEntry{t.ns(), h, k, idx});
    std::push_heap(b.heap.begin(), b.heap.end(), Later{});
  }

  template <bool kRecycle>
  static Event bucket_pop(Bucket& b) {
    std::pop_heap(b.heap.begin(), b.heap.end(), Later{});
    const std::uint32_t idx = b.heap.back().idx;
    Event ev = std::move(b.slots[idx]);
    b.heap.pop_back();
    if (b.heap.empty()) {
      b.slots.clear();  // keeps capacity
      if constexpr (kRecycle) b.free_idx.clear();
    } else if constexpr (kRecycle) {
      b.free_idx.push_back(idx);
    }
    return ev;
  }

  static void mark_occupied(Shard& s, std::uint64_t i) {
    s.occupied[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  static void ring_push(Shard& s, std::uint64_t ab, TimeNs t, std::uint64_t h, std::uint32_t k,
                        UniqueFunction&& fn) {
    const std::uint64_t i = ab & (kNumBuckets - 1);
    bucket_push<false>(s.ring[i], t, h, k, std::move(fn));
    mark_occupied(s, i);
    ++s.ring_size;
    if (ab < s.cursor) s.cursor = ab;
  }

  static void push(Shard& s, TimeNs t, std::uint64_t h, std::uint32_t k, UniqueFunction&& fn) {
    const std::uint64_t ab = abs_bucket(t);
    if (ab >= abs_bucket(s.now) + kNumBuckets) {
      bucket_push<true>(s.overflow, t, h, k, std::move(fn));
    } else {
      ring_push(s, ab, t, h, k, std::move(fn));
    }
  }

  /// Bulk-insert path for mailbox drains: appends the event without sifting
  /// its heap entry and marks the bucket for a deferred fixup.  The caller
  /// MUST run end_bulk() before any peek()/pop on this shard.  Far-horizon
  /// events (rare for crossings) take the ordinary overflow push.
  static void push_deferred(Shard& s, TimeNs t, std::uint64_t h, std::uint32_t k,
                            UniqueFunction&& fn) {
    const std::uint64_t ab = abs_bucket(t);
    if (ab >= abs_bucket(s.now) + kNumBuckets) {
      bucket_push<true>(s.overflow, t, h, k, std::move(fn));
      return;
    }
    const std::uint64_t i = ab & (kNumBuckets - 1);
    Bucket& b = s.ring[i];
    if (b.fixup_from == Bucket::kNoFixup) {
      b.fixup_from = static_cast<std::uint32_t>(b.heap.size());
      s.touched.push_back(&b);
    }
    const auto idx = static_cast<std::uint32_t>(b.slots.size());
    b.slots.emplace_back(t, h, k, std::move(fn));
    b.heap.push_back(HeapEntry{t.ns(), h, k, idx});
    mark_occupied(s, i);
    ++s.ring_size;
    if (ab < s.cursor) s.cursor = ab;
  }

  /// Restores the heap property of every bucket push_deferred touched.  Small
  /// batches sift the appended entries one by one; a batch that rivals the
  /// bucket's population rebuilds the whole heap in O(n).  Pop order is the
  /// strict (at, h, k, idx) total order either way, so heap layout never
  /// leaks into the schedule.
  static void end_bulk(Shard& s) {
    for (Bucket* b : s.touched) {
      const std::size_t from = b->fixup_from;
      const std::size_t size = b->heap.size();
      if ((size - from) * 4 < size) {
        for (std::size_t i = from + 1; i <= size; ++i) {
          std::push_heap(b->heap.begin(),
                         b->heap.begin() + static_cast<std::ptrdiff_t>(i), Later{});
        }
      } else {
        std::make_heap(b->heap.begin(), b->heap.end(), Later{});
      }
      b->fixup_from = Bucket::kNoFixup;
    }
    s.touched.clear();
  }

  /// Pulls overflow events that now fall inside the near-horizon window into
  /// the ring.  Overflow is ordered, so this stops at the first far event.
  static void migrate_overflow(Shard& s) {
    if (s.overflow.empty()) return;  // the common case: nothing far-scheduled
    const std::uint64_t window_end = abs_bucket(s.now) + kNumBuckets;
    while (!s.overflow.empty()) {
      const HeapEntry& top = s.overflow.heap.front();
      const std::uint64_t ab = abs_bucket(TimeNs{top.at});
      if (ab >= window_end) break;
      Event ev = bucket_pop<true>(s.overflow);
      ring_push(s, ab, ev.at, ev.h, ev.k, std::move(ev.fn));
    }
  }

  /// Distance from ring index `from` to the next occupied bucket, scanning
  /// cyclically (`from` itself is distance 0).  Requires a set bit.  The
  /// common case — an occupied bucket later in `from`'s own word — stays
  /// inline; the word walk lives out of line (simulator.cpp) so it does not
  /// bloat the run loop.
  [[nodiscard]] static std::uint64_t occupied_distance(const Shard& s, std::uint64_t from) {
    if (const std::uint64_t bits = s.occupied[from >> 6] >> (from & 63); bits != 0) {
      return static_cast<std::uint64_t>(std::countr_zero(bits));
    }
    return occupied_distance_far(s, from);
  }
  [[nodiscard]] static std::uint64_t occupied_distance_far(const Shard& s, std::uint64_t from);

  /// The earliest pending event, or nullptr.  Advances the bucket cursor to
  /// the next occupied bucket; `peeked_overflow` records which tier holds
  /// the result.
  [[nodiscard]] static const Event* peek(Shard& s) {
    migrate_overflow(s);
    if (s.ring_size > 0) {
      // Ring events are all within the window, so every index maps to one
      // absolute bucket and the first occupied bucket at or cyclically after
      // the cursor holds the earliest.
      if (s.cursor < abs_bucket(s.now)) s.cursor = abs_bucket(s.now);
      s.cursor += occupied_distance(s, s.cursor & (kNumBuckets - 1));
      s.peeked_overflow = false;
      const Bucket& b = s.ring[s.cursor & (kNumBuckets - 1)];
      return &b.slots[b.heap.front().idx];
    }
    if (!s.overflow.empty()) {
      // Every within-window event has migrated, so the overflow top — which
      // lies beyond the window — is the global earliest.
      s.peeked_overflow = true;
      return &s.overflow.slots[s.overflow.heap.front().idx];
    }
    return nullptr;
  }

  /// Removes the event `peek()` just located from its tier and advances the
  /// clock to it.  One named result, so the event is never moved twice.
  [[nodiscard]] static Event pop_peeked(Shard& s) {
    Event ev = s.peeked_overflow ? bucket_pop<true>(s.overflow) : ring_pop(s);
    s.now = ev.at;
    ++s.processed;
    return ev;
  }

  /// Pops the earliest event of the bucket under the cursor — the one place a
  /// pop can empty a ring bucket, hence the one place an occupancy bit is
  /// cleared.
  [[nodiscard]] static Event ring_pop(Shard& s) {
    const std::uint64_t i = s.cursor & (kNumBuckets - 1);
    Bucket& b = s.ring[i];
    Event ev = bucket_pop<false>(b);
    if (b.empty()) s.occupied[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    --s.ring_size;
    return ev;
  }

  /// Runs a popped event with its canonical scheduling context.
  static void run_event(Shard& s, Event& ev) {
    s.cur_id = event_identity(ev.h, ev.k);
    s.cur_k = 0;
    s.in_event = true;
    ev.fn();
    s.in_event = false;
  }

  /// Pops the event `peek()` just located and runs it.
  static void pop_and_run(Shard& s) {
    Event ev = pop_peeked(s);
    run_event(s, ev);
  }

#ifndef NDEBUG
  /// Debug contract: every occupancy bit equals its bucket's non-emptiness.
  /// Checked at the end of every run()/run_until(), when no shard is running.
  void audit_occupancy() const {
    for (const auto& s : shards_) {
      for (std::uint64_t i = 0; i < kNumBuckets; ++i) {
        const bool bit = ((s->occupied[i >> 6] >> (i & 63)) & 1) != 0;
        UFAB_CHECK_MSG(bit == !s->ring[i].empty(),
                       "calendar occupancy bit out of sync with its bucket");
      }
    }
  }
#endif

  /// The shard this thread's scheduling calls resolve to: the scoped/worker
  /// shard when one is set for *this* simulator, else shard 0 (setup code,
  /// tests, foreign threads).
  [[nodiscard]] Shard& active() {
    const ShardScope::Active a = tls_;
    return a.sim == this ? *static_cast<Shard*>(a.shard) : *shards_.front();
  }
  [[nodiscard]] const Shard& active() const {
    const ShardScope::Active a = tls_;
    return a.sim == this ? *static_cast<const Shard*>(a.shard) : *shards_.front();
  }
  [[nodiscard]] const Shard& shard_at(int i) const {
    return *shards_.at(static_cast<std::size_t>(i));
  }

  /// The cross mailbox carrying crossings from `src` to `dst`.
  [[nodiscard]] ShardMailbox<Crossing>& cross_ch(int src, int dst) const {
    return *cross_ch_[static_cast<std::size_t>(src) * shards_.size() +
                      static_cast<std::size_t>(dst)];
  }
  /// The return mailbox carrying packet storage freed by `freer` back to
  /// `owner`'s pool (populated only while the foreign guard is armed).
  [[nodiscard]] ShardMailbox<Packet*>& ret_ch(int freer, int owner) const {
    return *ret_ch_[static_cast<std::size_t>(freer) * shards_.size() +
                    static_cast<std::size_t>(owner)];
  }

  /// `shard`'s profiling slice, or nullptr when profiling is off (a null
  /// slice makes obs::ProfScope a no-op).
  [[nodiscard]] obs::ProfSlice* prof_slice(int shard) {
    return prof_ != nullptr ? &prof_->slice(shard) : nullptr;
  }

  // --- execution (simulator.cpp) ---
  void run_to(TimeNs t);
  void shard_pass(Shard& s, TimeNs last);
  void pop_and_run_profiled(Shard& s, obs::ProfSlice& sl);
  void run_until_sharded(TimeNs t);
  void ensure_exec_started();
  void run_pass();
  void walk_ladder(Shard& s);
  [[nodiscard]] TimeNs rung_last(int i) const;
  void run_rung(Shard& s, int i);
  void flush_outgoing(int src);
  void absorb(int src, int dst);
  void drain_incoming(Shard& s);
  void note_injected_progress();
  [[nodiscard]] TimeNs earliest_pending();
  void park_at_last_event(TimeNs floor);
  void worker_main(int shard_index);
  static void foreign_release_sink(void* ctx, PacketPool* owner, Packet* p);

  inline static thread_local ShardScope::Active tls_{nullptr, nullptr};

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Cross-shard mailboxes, row-major [src * n + dst] (diagonal null).
  /// Declared after shards_ so pending crossings (which own packets) are
  /// destroyed while every pool is still alive.
  std::vector<std::unique_ptr<ShardMailbox<Crossing>>> cross_ch_;
  /// Return mailboxes, row-major [freer * n + owner] (diagonal null).
  std::vector<std::unique_ptr<ShardMailbox<Packet*>>> ret_ch_;
  /// Per-shard published progress (rungs completed) for in-pass sync.
  std::vector<std::unique_ptr<ShardClockSlot>> clocks_;
  TimeNs lookahead_ = TimeNs::max();
  std::uint32_t root_k_ = 0;  ///< FIFO counter for root-context scheduling.

  int epoch_windows_ = 16;  ///< Max rungs per coordinator barrier.

  ShardExec exec_request_ = ShardExec::kAuto;
  bool sequential_only_ = false;
  std::vector<std::string> sequential_reasons_;  ///< Deduplicated, first-call order.
  bool exec_started_ = false;
  bool exec_threads_ = false;
  std::unique_ptr<EpochBarrier> barrier_;
  std::vector<std::thread> workers_;
  // The current pass, written by the coordinator between passes.
  TimeNs pass_base_ = TimeNs::zero();     ///< Where the ladder starts.
  TimeNs pass_horizon_ = TimeNs::zero();  ///< The run's t (max() drains).
  int pass_rungs_ = 0;
  std::int64_t rungs_done_ = 0;  ///< Rungs walked in earlier passes.
  std::uint64_t pass_gen_ = 0;
  std::uint64_t injected_noted_ = 0;  ///< Crossings already reported to prof_.
  std::unique_ptr<obs::Profiler> prof_;  ///< Null = profiling disabled.
};

}  // namespace ufab::sim
