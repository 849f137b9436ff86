// The discrete-event engine.
//
// A future-event list per shard: events are (time, h, k, closure) tuples
// ordered by time with deterministic tie-breaking, which makes runs exactly
// reproducible for a fixed seed.
//
// Each shard's list is a two-tier bucketed calendar queue rather than one
// global binary heap.  Near-horizon events (within ~0.5 ms of `now`) land in
// a ring of 512 ns time buckets; far-horizon events go to an overflow tier
// and migrate into the ring as the clock approaches them.  Every pending
// event of a shard, in either tier, lives in one slab whose freed slots go on
// a LIFO free list, so the slab stays at the shard's peak pending count and a
// push reuses the slot the last pop left warm.  A bucket holds only a small
// heap of (time, h, k, slot) keys — sifts compare and move 24-byte keys
// without touching the events, migration moves a key, and a closure is moved
// exactly once in (into its slot) and once out (when it fires).  A ring
// bucket holds a key buffer only while it has keys: the pop that empties it
// puts the buffer on the shard's stack of spares, and the next key filed
// into an empty bucket takes the top spare, so key storage follows the
// buckets in use rather than every bucket's busiest moment.  A 1024-bit
// occupancy bitmap beside the ring marks the non-empty buckets, so finding
// the next event across idle simulated time costs one count-trailing-zeros
// per 64 buckets instead of a step per empty bucket.
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
// parents scheduling at the same nanosecond would fall through to the slab
// slot; at fig17 scale the probability is ~1e-10 per run and any such run
// would still be deterministic, just not provably shard-count-invariant.)
//
// Sharded execution (configure_shards(n > 1)) is conservative parallel DES
// with one epoch protocol, a rung ladder: shards advance in lockstep through
// rungs one lookahead long (the min propagation delay over cut links), the
// last of which ends at the run's horizon.  Because a crossing arrives a
// full propagation delay after the event that posts it, no crossing can land
// inside the rung that produced it, so a shard never misses a remote event.
// Cross-shard packets are posted into per-(src,dst) mailboxes of two
// batches picked by rung parity (see shard_sync.hpp), and only copies cross:
// the destination shard delivers a copy from its own pool, and the original
// goes back to the source shard's pool on the source's thread.  An *epoch*
// (one coordinator barrier) spans up to kEpochRungs (16) rungs: inside a
// pass each shard self-synchronizes at rung ends through published
// per-shard progress (publish, spin until peers reach the rung, drain the
// rung's incoming batches — DESIGN.md §12), which amortizes the ~µs condvar
// barrier over 16 rungs of ~100 ns spins and orders every mailbox handoff.
// A drained crossing enters the calendar through the same push as every
// other event.  The calendar stays inline here; the one run loop and the
// ladder live in simulator.cpp.
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
  /// independent of the partition.  The destination delivers a copy from its
  /// own pool; `pkt` stays in the mailbox until this shard releases it two
  /// rungs later or more (or the run returns).  Only valid from inside a
  /// running event.
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
  /// root-context post belongs to no rung, so no drain would take it and
  /// earliest_pending() could not see it.
  void post_cross_keyed(int dst_shard, TimeNs at, Node* dst, PacketPtr pkt,
                        std::uint64_t h, std::uint32_t k) {
    UFAB_PROF_SCOPE(obs::ProfCat::kMailboxPost);
    Shard& s = active();
    UFAB_CHECK_MSG(s.in_event, "crossing posted outside an event");
    UFAB_CHECK(dst_shard >= 0 && dst_shard < shard_count() && dst_shard != s.index);
    cross_ch(s.index, dst_shard).post(s.rung, Crossing{at, h, k, dst, std::move(pkt)});
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
  /// Crossings `shard` has posted: the post counts of its outgoing cross
  /// mailboxes.  `shard`'s own context may read it mid-pass.
  [[nodiscard]] std::uint64_t shard_crossings_out(int shard) const {
    std::uint64_t total = 0;
    for (int dst = 0; dst < shard_count(); ++dst) {
      if (dst != shard) total += cross_ch(shard, dst).posted_total();
    }
    return total;
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
  /// Non-empty rung batches, one per (channel, rung) that carried a crossing.
  [[nodiscard]] std::uint64_t mailbox_flushes_total() const {
    std::uint64_t total = 0;
    for (const auto& ch : cross_ch_) {
      if (ch != nullptr) total += ch->batches();
    }
    return total;
  }
  [[nodiscard]] const PacketPool& shard_pool(int shard) const { return shard_at(shard).pool; }
  /// Event slots `shard`'s calendar holds, live or free: its peak pending
  /// event count so far.
  [[nodiscard]] std::size_t shard_event_slots(int shard) const {
    return shard_at(shard).slab.size();
  }
  /// Key capacity `shard`'s calendar holds: ring buckets, spare key buffers
  /// and the overflow heap.
  [[nodiscard]] std::size_t shard_key_slots(int shard) const {
    const Shard& s = shard_at(shard);
    std::size_t n = s.overflow.heap.capacity();
    for (const Bucket& b : s.ring) n += b.heap.capacity();
    for (const auto& spare : s.spare_keys) n += spare.capacity();
    return n;
  }

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

  /// Bucket-heap key: the event's full order key plus its slab slot, so
  /// sifting compares and moves these 24-byte entries only and never touches
  /// the (much larger) events.
  struct HeapEntry {
    std::int64_t at;
    std::uint64_t h;
    std::uint32_t k;
    std::uint32_t idx;
  };

  /// One calendar bucket: a binary min-heap of HeapEntry keys whose events
  /// live in the shard's slab.  An empty ring bucket holds no buffer (its
  /// last one went to the shard's spares).
  struct Bucket {
    std::vector<HeapEntry> heap;
    [[nodiscard]] bool empty() const { return heap.empty(); }
  };

  /// One cross-shard packet handoff, carrying the exact ordering key the
  /// delivery event will use in the destination calendar.  `pkt` is the
  /// source shard's original; the destination delivers a copy.
  struct Crossing {
    TimeNs at;
    std::uint64_t h;
    std::uint32_t k;
    Node* dst;
    PacketPtr pkt;
  };

  static constexpr int kBucketShift = 9;  ///< 512 ns per bucket.
  static constexpr std::uint64_t kNumBuckets = 1024;  ///< ~0.5 ms near horizon.
  static constexpr std::uint64_t kOccupancyWords = kNumBuckets / 64;
  static constexpr int kMaxShards = 64;
  static constexpr int kEpochRungs = 16;  ///< Max rungs per coordinator barrier.

  /// One event loop: its own clock, calendar and packet pool (its mailboxes
  /// are per-(src, dst) simulator members, cross_ch_).  The pool is
  /// declared first so the event tiers (whose pending closures own packets)
  /// are destroyed while the pool is still alive.
  struct Shard {
    explicit Shard(int idx) : index(idx), ring(kNumBuckets) {}

    int index;
    PacketPool pool;
    TimeNs now = TimeNs::zero();
    std::uint64_t processed = 0;
    std::vector<Bucket> ring;
    std::size_t ring_size = 0;
    std::uint64_t cursor = 0;     ///< No ring events live in buckets before this.
    /// Bit i set iff ring[i] holds events: set by file_key, cleared by
    /// ring_pop when a pop empties the bucket.
    std::uint64_t occupied[kOccupancyWords] = {};
    bool peeked_overflow = false;  ///< Tier of the last peek() result.
    Bucket overflow;
    /// Every pending event of both tiers; a key's idx names its slot.  Freed
    /// slots go on a LIFO list, so the slab stays at the peak pending count
    /// and the next push reuses the slot the last pop left warm.
    std::vector<Event> slab;
    std::vector<std::uint32_t> free_slots;
    /// Key buffers of drained ring buckets, empty but with their capacity,
    /// LIFO: the next bucket to fill takes the one the last drain left warm.
    std::vector<std::vector<HeapEntry>> spare_keys;

    /// Time of the last event this shard ran (clocks park past it at rung
    /// ends; a drain parks every clock at the latest one).
    TimeNs last_event = TimeNs::zero();
    /// The rung this shard runs or drains, numbered across passes: what it
    /// publishes as progress, and what picks its mailbox batches.
    std::int64_t rung = 0;

    // Scheduling context (the currently executing event).
    std::uint64_t cur_id = 0;
    std::uint32_t cur_k = 0;
    bool in_event = false;

    std::int64_t barrier_wait_ns = 0;  ///< Worker idle time at epoch barriers.
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

  static void mark_occupied(Shard& s, std::uint64_t i) {
    s.occupied[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  /// Moves an event into a slab slot (the last one freed, else a new one) and
  /// returns its key.  May grow the slab.
  static HeapEntry slab_put(Shard& s, TimeNs t, std::uint64_t h, std::uint32_t k,
                            UniqueFunction&& fn) {
    if (s.free_slots.empty()) {
      s.slab.emplace_back(t, h, k, std::move(fn));
      return HeapEntry{t.ns(), h, k, static_cast<std::uint32_t>(s.slab.size() - 1)};
    }
    const std::uint32_t idx = s.free_slots.back();
    s.free_slots.pop_back();
    Event& ev = s.slab[idx];
    ev.at = t;
    ev.h = h;
    ev.k = k;
    ev.fn = std::move(fn);
    return HeapEntry{t.ns(), h, k, idx};
  }

  static void heap_push(Bucket& b, const HeapEntry& e) {
    b.heap.push_back(e);
    std::push_heap(b.heap.begin(), b.heap.end(), Later{});
  }

  /// Pops `b`'s earliest key and moves its event out of the freed slot.
  static Event bucket_pop(Shard& s, Bucket& b) {
    std::pop_heap(b.heap.begin(), b.heap.end(), Later{});
    const std::uint32_t idx = b.heap.back().idx;
    b.heap.pop_back();
    s.free_slots.push_back(idx);
    return std::move(s.slab[idx]);
  }

  /// Sifts a key into its tier: the overflow heap past the near window, else
  /// its ring bucket.
  static void file_key(Shard& s, const HeapEntry& e) {
    const std::uint64_t ab = abs_bucket(TimeNs{e.at});
    if (ab >= abs_bucket(s.now) + kNumBuckets) {
      heap_push(s.overflow, e);
      return;
    }
    const std::uint64_t i = ab & (kNumBuckets - 1);
    Bucket& b = s.ring[i];
    if (b.empty() && !s.spare_keys.empty()) {
      b.heap = std::move(s.spare_keys.back());
      s.spare_keys.pop_back();
    }
    heap_push(b, e);
    mark_occupied(s, i);
    ++s.ring_size;
    if (ab < s.cursor) s.cursor = ab;
  }

  static void push(Shard& s, TimeNs t, std::uint64_t h, std::uint32_t k, UniqueFunction&& fn) {
    file_key(s, slab_put(s, t, h, k, std::move(fn)));
  }

  /// Moves the keys of overflow events that now fall inside the near-horizon
  /// window into the ring; their events stay in their slots.  Overflow is
  /// ordered, so this stops at the first far event.
  static void migrate_overflow(Shard& s) {
    if (s.overflow.empty()) return;  // the common case: nothing far-scheduled
    const std::uint64_t window_end = abs_bucket(s.now) + kNumBuckets;
    while (!s.overflow.empty() && abs_bucket(TimeNs{s.overflow.heap.front().at}) < window_end) {
      std::pop_heap(s.overflow.heap.begin(), s.overflow.heap.end(), Later{});
      const HeapEntry e = s.overflow.heap.back();
      s.overflow.heap.pop_back();
      file_key(s, e);
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
  /// the result.  The pointer is into the slab, which any push may grow:
  /// never use it after a push.
  [[nodiscard]] static const Event* peek(Shard& s) {
    migrate_overflow(s);
    if (s.ring_size > 0) {
      // Ring events are all within the window, so every index maps to one
      // absolute bucket and the first occupied bucket at or cyclically after
      // the cursor holds the earliest.
      if (s.cursor < abs_bucket(s.now)) s.cursor = abs_bucket(s.now);
      s.cursor += occupied_distance(s, s.cursor & (kNumBuckets - 1));
      s.peeked_overflow = false;
      return &s.slab[s.ring[s.cursor & (kNumBuckets - 1)].heap.front().idx];
    }
    if (!s.overflow.empty()) {
      // Every within-window event has migrated, so the overflow top — which
      // lies beyond the window — is the global earliest.
      s.peeked_overflow = true;
      return &s.slab[s.overflow.heap.front().idx];
    }
    return nullptr;
  }

  /// Removes the event `peek()` just located from its tier and advances the
  /// clock to it.  One named result, so the event is never moved twice.
  [[nodiscard]] static Event pop_peeked(Shard& s) {
    Event ev = s.peeked_overflow ? bucket_pop(s, s.overflow) : ring_pop(s);
    s.now = ev.at;
    ++s.processed;
    return ev;
  }

  /// Pops the earliest event of the bucket under the cursor — the one place a
  /// pop can empty a ring bucket, hence the one place an occupancy bit is
  /// cleared and a key buffer goes back to the spares.
  [[nodiscard]] static Event ring_pop(Shard& s) {
    const std::uint64_t i = s.cursor & (kNumBuckets - 1);
    Bucket& b = s.ring[i];
    Event ev = bucket_pop(s, b);
    if (b.empty()) {
      s.occupied[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
      s.spare_keys.push_back(std::exchange(b.heap, {}));
    }
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
  /// Debug contract: every occupancy bit equals its bucket's non-emptiness,
  /// an empty bucket holds no key buffer, and every spare is empty.  Checked
  /// at the end of every run()/run_until(), when no shard is running.
  void audit_occupancy() const {
    for (const auto& s : shards_) {
      for (std::uint64_t i = 0; i < kNumBuckets; ++i) {
        const bool bit = ((s->occupied[i >> 6] >> (i & 63)) & 1) != 0;
        UFAB_CHECK_MSG(bit == !s->ring[i].empty(),
                       "calendar occupancy bit out of sync with its bucket");
        UFAB_CHECK_MSG(!s->ring[i].empty() || s->ring[i].heap.capacity() == 0,
                       "empty calendar bucket kept its key buffer");
      }
      for (const auto& spare : s->spare_keys) {
        UFAB_CHECK_MSG(spare.empty(), "spare calendar key buffer holds keys");
      }
    }
  }

  /// Debug contract: every slab slot is named by exactly one key (in a ring
  /// bucket or the overflow heap) or sits on the free list — never both,
  /// never neither.  Checked where audit_occupancy is.
  void audit_slab() const {
    for (const auto& s : shards_) {
      std::vector<std::uint8_t> claimed(s->slab.size(), 0);
      std::size_t claims = 0;
      const auto claim = [&](std::uint32_t idx) {
        UFAB_CHECK_MSG(idx < claimed.size() && claimed[idx] == 0,
                       "calendar slab slot both keyed and free, or keyed twice");
        claimed[idx] = 1;
        ++claims;
      };
      for (const Bucket& b : s->ring) {
        for (const HeapEntry& e : b.heap) claim(e.idx);
      }
      for (const HeapEntry& e : s->overflow.heap) claim(e.idx);
      for (const std::uint32_t idx : s->free_slots) claim(idx);
      UFAB_CHECK_MSG(claims == claimed.size(), "calendar slab slot neither keyed nor free");
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
  void absorb(int src, int dst);
  void drain_incoming(Shard& s);
  [[nodiscard]] TimeNs earliest_pending();
  void park_at_last_event(TimeNs floor);
  void worker_main(int shard_index);

  inline static thread_local ShardScope::Active tls_{nullptr, nullptr};

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Cross-shard mailboxes, row-major [src * n + dst] (diagonal null).
  /// Declared after shards_ so pending crossings (which own packets) are
  /// destroyed while every pool is still alive.
  std::vector<std::unique_ptr<ShardMailbox<Crossing>>> cross_ch_;
  /// Per-shard published progress (rungs completed) for in-pass sync.
  std::vector<std::unique_ptr<ShardClockSlot>> clocks_;
  TimeNs lookahead_ = TimeNs::max();
  std::uint32_t root_k_ = 0;  ///< FIFO counter for root-context scheduling.

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
  std::unique_ptr<obs::Profiler> prof_;  ///< Null = profiling disabled.
};

}  // namespace ufab::sim
