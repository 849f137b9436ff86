// Hierarchical weighted-fair packet scheduler (uFAB-E Packet Scheduler, §4.1).
//
// The FPGA implementation constrains the WFQ engine to 8 weighted queues with
// distinct weight levels; VFs are binned into the nearest level and VFs
// sharing a level are served round-robin, as are VM-pair queues inside a VF.
// This scheduler reproduces that structure: deficit round robin across the 8
// levels (quantum proportional to the level weight, which doubles per level),
// round robin across tenants within a level, round robin across connections
// within a tenant.
//
// Like the hardware engine, a pull picks only among queues that hold work.
// Each tenant queue keeps one *armed* bit per entity; a scan walks the armed
// bits in round-robin order and disarms an entity that turns out to have
// nothing to send.  The owner re-arms an entity (arm(), O(1)) at every event
// that can make it sendable, so a pull costs O(armed entities), not
// O(registered entities), and serves exactly what a scan over every entity
// would serve.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/assert.hpp"
#include "src/core/ids.hpp"
#include "src/obs/profiler.hpp"

namespace ufab::edge {

class WfqScheduler {
 public:
  static constexpr int kLevels = 8;

  /// `base_weight` maps to level 0; each further level doubles the weight.
  explicit WfqScheduler(double base_weight = 1.0, std::int32_t quantum_bytes = 1500)
      : base_weight_(base_weight), quantum_(quantum_bytes) {}

  /// Registers/updates a tenant's weight (its aggregate guarantee). Must be
  /// called before entities of the tenant are added.
  void set_tenant_weight(TenantId tenant, double weight);

  /// Adds a schedulable entity (a VM-pair connection) under a tenant.  Entity
  /// ids index a flat table, so keep them small and dense; 0 means "none".
  /// A new entity starts armed.
  void add(TenantId tenant, std::uint64_t entity);
  void remove(TenantId tenant, std::uint64_t entity);

  /// Marks a registered entity as possibly sendable, so the next scan asks
  /// `sendable()` about it.  The arm contract: the owner arms an entity
  /// whenever its `sendable()` may have turned from 0 to nonzero.  Arming an
  /// entity that cannot send is harmless.
  void arm(std::uint64_t entity) {
    UFAB_CHECK(entity < slots_.size() && slots_[entity].tenant != kNoTenant);
    const Slot s = slots_[entity];
    TenantQueue& tq = tenants_[s.tenant];
    std::uint64_t& word = tq.armed[s.index >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (s.index & 63);
    if ((word & bit) != 0) return;
    word |= bit;
    ++tq.armed_count;
    ++levels_[tq.level].armed;
  }

  /// Returns the next entity allowed to send, or 0 if none is sendable.
  /// `sendable(entity)` returns
  ///   > 0  the wire size of the entity's next packet: it may send now;
  ///   < 0  it has work that only time releases (pacing, a migration gate):
  ///        not sendable now, but it stays armed;
  ///     0  nothing admissible until its owner arms it again: it is disarmed.
  /// It must not change scheduling state, since a scan may evaluate it for
  /// several entities.  Templated on the callable — this is the edge hot path
  /// (~1e8 calls per large bench), and an std::function here would make
  /// every per-entity query an indirect call.
  template <typename Sendable>
  std::uint64_t next(Sendable&& sendable) {
    UFAB_PROF_SCOPE(obs::ProfCat::kWfq);
    // Classic DRR adapted to pull-one semantics: the rotation pointer stays
    // on a level while its deficit lasts; moving onto a level grants its
    // quantum exactly once. A level with nothing sendable forfeits its
    // deficit, as in standard DRR where an emptied queue resets its counter.
    for (int i = 0; i < 2 * kLevels; ++i) {
      Level& L = levels_[rr_level_];
      if (!L.tenants.empty()) {
        const Found f = find_sendable(L, sendable);
        if (f.entity != 0 && L.deficit >= f.size) {
          commit(L, f);
          L.deficit -= f.size;
          return f.entity;
        }
        if (f.entity == 0) L.deficit = 0.0;
      }
      // Advance the rotation and grant the next level its quantum.
      rr_level_ = (rr_level_ + 1) % kLevels;
      Level& N = levels_[rr_level_];
      const double level_quantum =
          static_cast<double>(quantum_) * static_cast<double>(1 << rr_level_);
      N.deficit = std::min(N.deficit + level_quantum, 2.0 * level_quantum);
    }
    // Work-conserving fallback: never leave the wire idle because every level
    // is deficit-blocked — serve the first sendable entity and let its level
    // borrow (deficit goes negative, repaid on later rounds).
    for (int li = 0; li < kLevels; ++li) {
      Level& L = levels_[li];
      if (L.tenants.empty()) continue;
      const Found f = find_sendable(L, sendable);
      if (f.entity == 0) continue;
      commit(L, f);
      L.deficit -= f.size;
      return f.entity;
    }
    return 0;
  }

  /// Checks the arm contract: returns a disarmed entity whose `sendable()` is
  /// nonzero — an arm its owner missed, which starves the entity now (> 0) or
  /// once time releases it (< 0) — or 0 if there is none.  O(entities), so
  /// callers run it in debug builds only.
  template <typename Sendable>
  [[nodiscard]] std::uint64_t audit(Sendable&& sendable) const {
    for (const TenantQueue& tq : tenants_) {
      for (std::size_t i = 0; i < tq.entities.size(); ++i) {
        if (!armed_at(tq, i) && sendable(tq.entities[i]) != 0) return tq.entities[i];
      }
    }
    return 0;
  }

  [[nodiscard]] int level_of(TenantId tenant) const;
  [[nodiscard]] std::size_t entity_count() const { return entity_count_; }

 private:
  static constexpr std::uint32_t kNoTenant = ~std::uint32_t{0};

  /// A tenant's entities in round-robin order.  Queues live in `tenants_`
  /// for the scheduler's lifetime; a level lists the non-empty ones.
  struct TenantQueue {
    TenantId tenant;
    int level = 0;
    std::vector<std::uint64_t> entities;
    std::vector<std::uint64_t> armed;  ///< Bit i set: entities[i] is armed.
    std::size_t armed_count = 0;
    std::size_t cursor = 0;
  };
  struct Level {
    std::vector<std::uint32_t> tenants;  ///< Indices into tenants_, RR order.
    std::size_t cursor = 0;
    std::size_t armed = 0;  ///< Armed entities over the level's tenants.
    double deficit = 0.0;
  };
  /// Where an entity is registered: its tenant queue and its index there.
  struct Slot {
    std::uint32_t tenant = kNoTenant;
    std::uint32_t index = 0;
  };

  /// A sendable entity located by find_sendable, with the round-robin
  /// positions needed to commit the scan (advance the cursors) only if the
  /// caller actually serves it.  Locate-then-commit keeps `sendable` invoked
  /// once per scanned entity; the old probe-then-rescan shape evaluated the
  /// query twice for every served packet.
  struct Found {
    std::uint64_t entity = 0;
    std::int32_t size = 0;
    std::size_t tenant_off = 0;  ///< Tenant offset from level.cursor.
    std::size_t entity_idx = 0;  ///< Index into the tenant's entity list.
  };

  /// Visits the level's armed entities in round-robin order — tenants from
  /// the level cursor, entities from each tenant's cursor — and returns the
  /// first sendable one.  By the arm contract every entity whose `sendable()`
  /// is nonzero is armed, so skipping the rest finds the entity a scan over
  /// every entity would find.
  template <typename Sendable>
  [[nodiscard]] Found find_sendable(Level& level, Sendable& sendable) {
    Found f;
    const std::size_t nt = level.tenants.size();
    for (std::size_t t = 0; t < nt && level.armed > 0; ++t) {
      TenantQueue& tq = tenants_[level.tenants[(level.cursor + t) % nt]];
      if (tq.armed_count == 0) continue;
      // Two runs cover the circular order: [cursor, n), then [0, cursor).
      std::size_t lo = tq.cursor;
      std::size_t hi = tq.entities.size();
      for (int run = 0; run < 2; ++run) {
        for (std::size_t ei = next_armed(tq, lo, hi); ei < hi; ei = next_armed(tq, ei + 1, hi)) {
          const std::uint64_t entity = tq.entities[ei];
          const std::int32_t size = sendable(entity);
          if (size > 0) {
            f.entity = entity;
            f.size = size;
            f.tenant_off = t;
            f.entity_idx = ei;
            return f;
          }
          if (size == 0) disarm(level, tq, ei);
        }
        hi = lo;
        lo = 0;
      }
    }
    return f;
  }

  /// First armed index in [from, to), or `to` if there is none.
  static std::size_t next_armed(const TenantQueue& tq, std::size_t from, std::size_t to) {
    if (from >= to) return to;
    std::size_t w = from >> 6;
    const std::size_t last = (to - 1) >> 6;
    std::uint64_t bits = tq.armed[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w > last) return to;
      bits = tq.armed[w];
    }
    const std::size_t i = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    return i < to ? i : to;
  }

  static bool armed_at(const TenantQueue& tq, std::size_t i) {
    return ((tq.armed[i >> 6] >> (i & 63)) & 1) != 0;
  }

  static void disarm(Level& level, TenantQueue& tq, std::size_t i) {
    tq.armed[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    --tq.armed_count;
    --level.armed;
  }

  /// Advances the round-robin cursors past the entity `f` that was served.
  void commit(Level& level, const Found& f) {
    const std::size_t nt = level.tenants.size();
    TenantQueue& tq = tenants_[level.tenants[(level.cursor + f.tenant_off) % nt]];
    tq.cursor = (f.entity_idx + 1) % tq.entities.size();
    level.cursor = (level.cursor + f.tenant_off + 1) % nt;
  }

  [[nodiscard]] int weight_to_level(double weight) const;
  /// Index of `tenant` in tenants_, creating its queue at `level` if new.
  std::uint32_t tenant_queue(TenantId tenant, int level);
  /// Takes a tenant that became empty or changes level off its level's rotation.
  void unlist(std::uint32_t tenant);

  double base_weight_;
  std::int32_t quantum_;
  Level levels_[kLevels];
  std::vector<TenantQueue> tenants_;
  std::unordered_map<std::int32_t, std::uint32_t> tenant_index_;  // TenantId value -> tenants_
  std::vector<Slot> slots_;  // entity -> registration
  std::size_t entity_count_ = 0;
  int rr_level_ = 0;
};

}  // namespace ufab::edge
