// Unit tests for the hierarchical WFQ scheduler, plus a differential test
// of its armed-set scan against a full-scan reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/core/rng.hpp"
#include "src/ufab/wfq.hpp"

namespace ufab::edge {
namespace {

/// Runs `rounds` pulls with every entity always sendable at `pkt` bytes and
/// returns bytes served per entity.
std::map<std::uint64_t, std::int64_t> serve(WfqScheduler& wfq, int rounds, std::int32_t pkt) {
  std::map<std::uint64_t, std::int64_t> bytes;
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t e = wfq.next([pkt](std::uint64_t) { return pkt; });
    if (e == 0) break;
    bytes[e] += pkt;
  }
  return bytes;
}

TEST(Wfq, EmptySchedulerReturnsZero) {
  WfqScheduler wfq;
  EXPECT_EQ(wfq.next([](std::uint64_t) { return 1500; }), 0u);
}

TEST(Wfq, SingleEntityAlwaysServed) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 7);
  const auto bytes = serve(wfq, 10, 1500);
  EXPECT_EQ(bytes.at(7), 15'000);
}

TEST(Wfq, EqualWeightsShareEqually) {
  WfqScheduler wfq(1.0);
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.set_tenant_weight(TenantId{1}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{1}, 2);
  const auto bytes = serve(wfq, 1000, 1500);
  EXPECT_NEAR(static_cast<double>(bytes.at(1)) / static_cast<double>(bytes.at(2)), 1.0, 0.05);
}

TEST(Wfq, WeightedSharesFollowLevels) {
  WfqScheduler wfq(1.0);
  wfq.set_tenant_weight(TenantId{0}, 1.0);  // level 0
  wfq.set_tenant_weight(TenantId{1}, 4.0);  // level 2
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{1}, 2);
  const auto bytes = serve(wfq, 5000, 1500);
  const double ratio = static_cast<double>(bytes.at(2)) / static_cast<double>(bytes.at(1));
  EXPECT_NEAR(ratio, 4.0, 0.8);
}

TEST(Wfq, WeightsQuantizedToEightLevels) {
  WfqScheduler wfq(1.0);
  EXPECT_EQ(wfq.level_of(TenantId{9}), 0);  // unknown tenant
  wfq.set_tenant_weight(TenantId{0}, 0.25);
  wfq.set_tenant_weight(TenantId{1}, 1.0);
  wfq.set_tenant_weight(TenantId{2}, 2.0);
  wfq.set_tenant_weight(TenantId{3}, 1000.0);  // clamped to top level
  EXPECT_EQ(wfq.level_of(TenantId{0}), 0);
  EXPECT_EQ(wfq.level_of(TenantId{1}), 0);
  EXPECT_EQ(wfq.level_of(TenantId{2}), 1);
  EXPECT_EQ(wfq.level_of(TenantId{3}), 7);
}

TEST(Wfq, RoundRobinWithinTenant) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{0}, 2);
  wfq.add(TenantId{0}, 3);
  const auto bytes = serve(wfq, 300, 1000);
  EXPECT_EQ(bytes.at(1), bytes.at(2));
  EXPECT_EQ(bytes.at(2), bytes.at(3));
}

TEST(Wfq, SkipsUnsendableEntities) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{0}, 2);
  // Entity 1 never sendable.
  std::int64_t served2 = 0;
  for (int i = 0; i < 50; ++i) {
    const auto e = wfq.next([](std::uint64_t ent) { return ent == 2 ? 1500 : 0; });
    ASSERT_NE(e, 1u);
    if (e == 2) ++served2;
  }
  EXPECT_EQ(served2, 50);
}

TEST(Wfq, RemoveStopsService) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.remove(TenantId{0}, 1);
  EXPECT_EQ(wfq.next([](std::uint64_t) { return 1500; }), 0u);
  EXPECT_EQ(wfq.entity_count(), 0u);
}

TEST(Wfq, TenantWeightChangeMovesEntities) {
  WfqScheduler wfq(1.0);
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.set_tenant_weight(TenantId{0}, 128.0);  // move to level 7
  EXPECT_EQ(wfq.level_of(TenantId{0}), 7);
  // Still schedulable after the move.
  EXPECT_EQ(wfq.next([](std::uint64_t) { return 1500; }), 1u);
}

TEST(Wfq, WorkConservingUnderMixedLoad) {
  // Even when high-weight levels dominate, low levels are never starved.
  WfqScheduler wfq(1.0);
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.set_tenant_weight(TenantId{1}, 128.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{1}, 2);
  const auto bytes = serve(wfq, 4000, 1500);
  EXPECT_GT(bytes.at(1), 0);
  EXPECT_GT(bytes.at(2), bytes.at(1));
}

// ---------------------------------------------------------------------------
// Differential test: armed-set scan vs the full-scan DRR it replaced.
// ---------------------------------------------------------------------------

/// The WFQ scheduler as it was before armed sets: every pull asks
/// `sendable()` about every registered entity until one has a packet. Kept,
/// minus entity counting and profiling, as the oracle the armed-set scan
/// must match pull for pull.
class FullScanWfq {
 public:
  static constexpr int kLevels = WfqScheduler::kLevels;

  explicit FullScanWfq(double base_weight = 1.0, std::int32_t quantum_bytes = 1500)
      : base_weight_(base_weight), quantum_(quantum_bytes) {}

  void set_tenant_weight(TenantId tenant, double weight) {
    const int level = weight_to_level(weight);
    auto it = tenant_level_.find(tenant.value());
    if (it != tenant_level_.end() && it->second == level) return;
    std::vector<std::uint64_t> moved;
    if (it != tenant_level_.end()) {
      Level& old = levels_[it->second];
      if (TenantQueue* tq = find_tenant(old, tenant)) {
        moved = std::move(tq->entities);
        old.tenants.erase(old.tenants.begin() + (tq - old.tenants.data()));
        old.cursor = 0;
      }
    }
    tenant_level_[tenant.value()] = level;
    if (!moved.empty()) {
      levels_[level].tenants.push_back(TenantQueue{tenant, std::move(moved), 0});
    }
  }

  void add(TenantId tenant, std::uint64_t entity) {
    auto it = tenant_level_.find(tenant.value());
    const int level = it != tenant_level_.end() ? it->second : weight_to_level(base_weight_);
    if (it == tenant_level_.end()) tenant_level_[tenant.value()] = level;
    Level& L = levels_[level];
    TenantQueue* tq = find_tenant(L, tenant);
    if (tq == nullptr) {
      L.tenants.push_back(TenantQueue{tenant, {}, 0});
      tq = &L.tenants.back();
    }
    tq->entities.push_back(entity);
  }

  void remove(TenantId tenant, std::uint64_t entity) {
    auto it = tenant_level_.find(tenant.value());
    if (it == tenant_level_.end()) return;
    Level& L = levels_[it->second];
    TenantQueue* tq = find_tenant(L, tenant);
    if (tq == nullptr) return;
    auto pos = std::find(tq->entities.begin(), tq->entities.end(), entity);
    if (pos == tq->entities.end()) return;
    tq->entities.erase(pos);
    tq->cursor = 0;
    if (tq->entities.empty()) {
      L.tenants.erase(L.tenants.begin() + (tq - L.tenants.data()));
      L.cursor = 0;
    }
  }

  template <typename Sendable>
  std::uint64_t next(Sendable&& sendable) {
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
      rr_level_ = (rr_level_ + 1) % kLevels;
      Level& N = levels_[rr_level_];
      const double level_quantum =
          static_cast<double>(quantum_) * static_cast<double>(1 << rr_level_);
      N.deficit = std::min(N.deficit + level_quantum, 2.0 * level_quantum);
    }
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

 private:
  struct TenantQueue {
    TenantId tenant;
    std::vector<std::uint64_t> entities;
    std::size_t cursor = 0;
  };
  struct Level {
    std::vector<TenantQueue> tenants;
    std::size_t cursor = 0;
    double deficit = 0.0;
  };
  struct Found {
    std::uint64_t entity = 0;
    std::int32_t size = 0;
    std::size_t tenant_off = 0;
    std::size_t entity_idx = 0;
  };

  template <typename Sendable>
  Found find_sendable(Level& level, Sendable& sendable) const {
    Found f;
    const std::size_t nt = level.tenants.size();
    for (std::size_t t = 0; t < nt; ++t) {
      const TenantQueue& tq = level.tenants[(level.cursor + t) % nt];
      const std::size_t ne = tq.entities.size();
      for (std::size_t e = 0; e < ne; ++e) {
        const std::size_t ei = (tq.cursor + e) % ne;
        const std::uint64_t entity = tq.entities[ei];
        const std::int32_t size = sendable(entity);
        if (size > 0) {
          f.entity = entity;
          f.size = size;
          f.tenant_off = t;
          f.entity_idx = ei;
          return f;
        }
      }
    }
    return f;
  }

  static void commit(Level& level, const Found& f) {
    TenantQueue& tq = level.tenants[(level.cursor + f.tenant_off) % level.tenants.size()];
    tq.cursor = (f.entity_idx + 1) % tq.entities.size();
    level.cursor = (level.cursor + f.tenant_off + 1) % level.tenants.size();
  }

  [[nodiscard]] int weight_to_level(double weight) const {
    if (weight <= base_weight_) return 0;
    const int level = static_cast<int>(std::floor(std::log2(weight / base_weight_) + 0.5));
    return std::clamp(level, 0, kLevels - 1);
  }

  TenantQueue* find_tenant(Level& level, TenantId tenant) {
    for (auto& tq : level.tenants) {
      if (tq.tenant == tenant) return &tq;
    }
    return nullptr;
  }

  double base_weight_;
  std::int32_t quantum_;
  Level levels_[kLevels];
  std::unordered_map<std::int32_t, int> tenant_level_;
  int rr_level_ = 0;
};

/// Drives the armed-set scheduler and the full-scan oracle with one random
/// script and checks they serve the same entity on every pull.  Entities move
/// between three states: idle (sendable() == 0), gated (< 0: only time
/// releases it) and ready (> 0, a random packet size).  The script keeps the
/// arm contract the way the edge does — every idle -> gated/ready flip is
/// followed by arm() — while gated -> ready happens with no arm, as pacing or
/// a migration gate expiring would.  It also moves tenants between levels,
/// removes and re-adds entities, and arms idle entities spuriously.
TEST(Wfq, ArmedSetMatchesFullScanOnRandomScript) {
  constexpr int kTenants = 6;
  constexpr std::uint64_t kEntities = 150;  // > 64 per tenant for some: multi-word bitsets
  constexpr int kPulls = 120'000;
  constexpr std::int32_t kIdle = 0;
  constexpr std::int32_t kGated = -1;

  WfqScheduler wfq(1.0, 1500);
  FullScanWfq oracle(1.0, 1500);
  Rng rng(20'221'022);
  std::vector<std::int32_t> state(kEntities + 1, kIdle);
  std::vector<TenantId> owner(kEntities + 1);
  std::vector<bool> present(kEntities + 1, false);
  const auto sendable = [&state](std::uint64_t e) { return state[e]; };
  const auto random_size = [&rng] { return static_cast<std::int32_t>(rng.range(64, 9000)); };
  const auto random_weight = [&rng] { return std::ldexp(1.0, static_cast<int>(rng.below(9))); };

  for (int t = 0; t < kTenants; ++t) {
    const double w = random_weight();
    wfq.set_tenant_weight(TenantId{t}, w);
    oracle.set_tenant_weight(TenantId{t}, w);
  }
  // Skewed tenant sizes: tenant 0 holds ~half the entities.
  for (std::uint64_t e = 1; e <= kEntities; ++e) {
    const bool big = rng.uniform() < 0.5;
    owner[e] = TenantId{big ? 0 : static_cast<std::int32_t>(rng.range(1, kTenants - 1))};
    wfq.add(owner[e], e);
    oracle.add(owner[e], e);
    present[e] = true;
    state[e] = rng.uniform() < 0.3 ? random_size() : kIdle;
  }

  const auto pick = [&rng] {
    return static_cast<std::uint64_t>(rng.range(1, static_cast<std::int64_t>(kEntities)));
  };
  int served = 0;
  int empty = 0;
  for (int pull = 0; pull < kPulls; ++pull) {
    // A few state changes between pulls.
    const int changes = static_cast<int>(rng.below(4));
    for (int c = 0; c < changes; ++c) {
      const std::uint64_t e = pick();
      const double u = rng.uniform();
      if (u < 0.30) {
        // Demand or window growth: idle/gated/ready -> ready, then arm.
        state[e] = random_size();
        if (present[e]) wfq.arm(e);
      } else if (u < 0.40) {
        // Migration gate or pacing: -> gated, then arm.
        state[e] = kGated;
        if (present[e]) wfq.arm(e);
      } else if (u < 0.55) {
        // Time passes: a gated entity is released with no arm.
        if (state[e] == kGated) state[e] = random_size();
      } else if (u < 0.75) {
        // Window closes or backlog drains: no arm needed.
        state[e] = kIdle;
      } else if (u < 0.80) {
        // Spurious arm of whatever state the entity is in.
        if (present[e]) wfq.arm(e);
      } else if (u < 0.83) {
        // Tenant weight change (may move the tenant to another level).
        const TenantId t{static_cast<std::int32_t>(rng.below(kTenants))};
        const double w = random_weight();
        wfq.set_tenant_weight(t, w);
        oracle.set_tenant_weight(t, w);
      } else if (u < 0.86) {
        // Deregister, or re-register (possibly under another tenant).
        if (present[e]) {
          wfq.remove(owner[e], e);
          oracle.remove(owner[e], e);
          present[e] = false;
        } else {
          if (rng.uniform() < 0.5) {
            owner[e] = TenantId{static_cast<std::int32_t>(rng.below(kTenants))};
          }
          wfq.add(owner[e], e);
          oracle.add(owner[e], e);
          present[e] = true;
        }
      }
    }

    const std::uint64_t want = oracle.next(sendable);
    const std::uint64_t got = wfq.next(sendable);
    ASSERT_EQ(got, want) << "pull " << pull;
    ASSERT_EQ(wfq.audit(sendable), 0u) << "pull " << pull;
    if (got == 0) {
      ++empty;
      continue;
    }
    ++served;
    // The served entity's next packet: another one, or it runs dry.
    state[got] = rng.uniform() < 0.7 ? random_size() : kIdle;
  }
  // The script exercised both outcomes.
  EXPECT_GT(served, kPulls / 4);
  EXPECT_GT(empty, kPulls / 100);
}

TEST(Wfq, AuditReportsAMissedArm) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{0}, 2);
  std::vector<std::int32_t> state{0, 0, 1500};
  const auto sendable = [&state](std::uint64_t e) { return state[e]; };
  EXPECT_EQ(wfq.next(sendable), 2u);  // entity 1 is seen idle and disarmed
  EXPECT_EQ(wfq.audit(sendable), 0u);
  state[1] = 1500;                      // becomes sendable, but nobody arms it
  EXPECT_EQ(wfq.audit(sendable), 1u);
  state[1] = -1;                        // or gated: time alone would release it
  EXPECT_EQ(wfq.audit(sendable), 1u);
  wfq.arm(1);
  EXPECT_EQ(wfq.audit(sendable), 0u);
}

}  // namespace
}  // namespace ufab::edge
