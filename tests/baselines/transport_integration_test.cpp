// Integration tests for the baseline composites (PWC, ES+Clove).
//
// These pin down the *qualitative* behaviours the paper's evaluation relies
// on: the baselines work, but converge slowly, and ES+Clove keeps guarantees
// at the cost of fabric queueing.
#include <cmath>

#include <gtest/gtest.h>

#include "src/harness/fabric.hpp"
#include "src/harness/schemes.hpp"
#include "src/stats/timeseries.hpp"
#include "src/topo/builders.hpp"

namespace ufab::harness {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

struct World {
  Fabric fab;
  World(Scheme scheme, const Fabric::Builder& builder, std::uint64_t seed = 11)
      : fab(builder, seed) {
    install_scheme(fab, scheme);
    fab.install_pair_metering(1_ms);
  }
  double rate_gbps(VmPairId pair, TimeNs from, TimeNs to) {
    RateMeter* m = fab.pair_meter(pair);
    if (m == nullptr) return 0.0;
    double bytes = 0.0;
    for (const auto& s : m->series(to)) {
      if (s.at >= from && s.at < to) bytes += s.rate.bytes_per_sec() * m->bucket_width().sec();
    }
    return bytes * 8.0 / 1e9 / (to - from).sec();
  }
};

Fabric::Builder dumbbell_for(Scheme s) {
  return [s](sim::Simulator& sim) {
    return topo::make_dumbbell(sim, 2, 2, fabric_options_for(s, {}));
  };
}

TEST(PwcIntegration, SinglePairFillsTrunk) {
  World w(Scheme::kPwc, dumbbell_for(Scheme::kPwc));
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 1_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.keep_backlogged(pair, 0_ms, 100_ms);
  w.fab.sim().run_until(100_ms);
  // Swift fills the pipe eventually (AIMD: takes tens of ms).
  EXPECT_GT(w.rate_gbps(pair, 60_ms, 100_ms), 7.0);
}

TEST(PwcIntegration, ConvergenceOnJoinIsSlowerThanUfab) {
  // The central quantitative claim of §2.2: when a new flow joins a busy
  // link, WCC needs many milliseconds to converge to the fair share because
  // the incumbent only yields via delay-triggered AIMD; uFAB's informative
  // core re-divides the link within a couple of RTTs.
  // Weighted setup (4:1): the joining flow must *settle at* its weighted
  // share, not merely touch it — AIMD overshoots and oscillates.
  struct Join {
    TimeNs settle;      ///< Time after the join to hold +-30% for 5 ms.
    double mean_error;  ///< Mean |rate - share| / share over [25, 100) ms.
  };
  const auto join = [](Scheme s) {
    World w(s, dumbbell_for(s));
    auto& vms = w.fab.vms();
    const TenantId ta = vms.add_tenant("A", 4_Gbps);
    const TenantId tb = vms.add_tenant("B", 1_Gbps);
    const VmPairId pa{vms.add_vm(ta, HostId{0}), vms.add_vm(ta, HostId{2})};
    const VmPairId pb{vms.add_vm(tb, HostId{1}), vms.add_vm(tb, HostId{3})};
    w.fab.keep_backlogged(pa, 0_ms, 100_ms);
    w.fab.keep_backlogged(pb, 20_ms, 100_ms);  // B joins a saturated trunk
    w.fab.sim().run_until(100_ms);
    RateMeter* m = w.fab.pair_meter(pb);
    if (m == nullptr) return Join{TimeNs::max(), 1.0};
    // B's weighted share is 9.5/5 = 1.9 Gbps.
    constexpr double kShare = 1.9;
    TimeSeries ts;
    double error = 0.0;
    int buckets = 0;
    for (const auto& sm : m->series(100_ms)) {
      ts.add(sm.at, sm.rate.gbit_per_sec());
      if (sm.at >= 25_ms && sm.at < 100_ms) {
        error += std::abs(sm.rate.gbit_per_sec() - kShare) / kShare;
        ++buckets;
      }
    }
    const TimeNs settle = ts.settle_time(20_ms, kShare * 0.7, kShare * 1.3, 5_ms);
    return Join{settle == TimeNs::max() ? settle : settle - 20_ms,
                buckets > 0 ? error / buckets : 1.0};
  };
  const Join ufab = join(Scheme::kUfab);
  const Join pwc = join(Scheme::kPwc);
  EXPECT_LE(ufab.settle, 2_ms);
  // PWC's pair runs well above its share after the join (AIMD never backs
  // off to the weighted split), so it tracks the share at least 2x worse
  // than uFAB's pair does.
  EXPECT_GE(pwc.mean_error, 2.0 * ufab.mean_error)
      << "pwc=" << pwc.mean_error * 100 << "% ufab=" << ufab.mean_error * 100 << "%";
}

TEST(PwcIntegration, ReceiverCreditsProtectDownlinkFairness) {
  // 4-to-1 on one downlink, different tenant weights 3:1:1:1.
  World w(Scheme::kPwc, [](sim::Simulator& s) {
    return topo::make_dumbbell(s, 4, 1, fabric_options_for(Scheme::kPwc, {}));
  });
  auto& vms = w.fab.vms();
  std::vector<VmPairId> pairs;
  for (int i = 0; i < 4; ++i) {
    const TenantId t = vms.add_tenant("T" + std::to_string(i), i == 0 ? 3_Gbps : 1_Gbps);
    pairs.push_back(VmPairId{vms.add_vm(t, HostId{i}), vms.add_vm(t, HostId{4})});
    w.fab.keep_backlogged(pairs.back(), 0_ms, 120_ms);
  }
  w.fab.sim().run_until(120_ms);
  const double r0 = w.rate_gbps(pairs[0], 60_ms, 120_ms);
  const double r1 = w.rate_gbps(pairs[1], 60_ms, 120_ms);
  EXPECT_GT(r0, r1);            // weighted allocation at the receiver
  EXPECT_GT(r0 + 3 * r1, 6.0);  // and the downlink is well used
}

TEST(EsIntegration, GuaranteeHeldUnderContention) {
  World w(Scheme::kEsClove, dumbbell_for(Scheme::kEsClove));
  auto& vms = w.fab.vms();
  const TenantId ta = vms.add_tenant("A", 6_Gbps);
  const TenantId tb = vms.add_tenant("B", 2_Gbps);
  const VmPairId pa{vms.add_vm(ta, HostId{0}), vms.add_vm(ta, HostId{2})};
  const VmPairId pb{vms.add_vm(tb, HostId{1}), vms.add_vm(tb, HostId{3})};
  w.fab.keep_backlogged(pa, 0_ms, 120_ms);
  w.fab.keep_backlogged(pb, 0_ms, 120_ms);
  w.fab.sim().run_until(120_ms);
  // ES's rate floor keeps both guarantees even while competing.
  EXPECT_GT(w.rate_gbps(pa, 60_ms, 120_ms), 6.0 * 0.8);
  EXPECT_GT(w.rate_gbps(pb, 60_ms, 120_ms), 2.0 * 0.8);
}

TEST(EsIntegration, RateFloorCausesQueueingUfabAvoids) {
  // Oversubscribe a trunk with guarantees only (8+8 > 10 Gbps): ES keeps
  // pushing at the guarantee floor and queues the fabric; uFAB degrades
  // proportionally and keeps the queue near zero (Fig. 11e's contrast).
  const auto max_trunk_queue = [](Scheme s) {
    World w(s, [s](sim::Simulator& sim2) {
      return topo::make_dumbbell(sim2, 2, 2, fabric_options_for(s, {}));
    });
    auto& vms = w.fab.vms();
    const TenantId ta = vms.add_tenant("A", 8_Gbps);
    const TenantId tb = vms.add_tenant("B", 8_Gbps);
    const VmPairId pa{vms.add_vm(ta, HostId{0}), vms.add_vm(ta, HostId{2})};
    const VmPairId pb{vms.add_vm(tb, HostId{1}), vms.add_vm(tb, HostId{3})};
    w.fab.keep_backlogged(pa, 0_ms, 60_ms);
    w.fab.keep_backlogged(pb, 0_ms, 60_ms);
    w.fab.sim().run_until(60_ms);
    std::int64_t worst = 0;
    for (const auto* l : w.fab.net().links()) {
      worst = std::max(worst, l->max_queue_bytes());
    }
    return worst;
  };
  const std::int64_t es_queue = max_trunk_queue(Scheme::kEsClove);
  const std::int64_t ufab_queue = max_trunk_queue(Scheme::kUfab);
  EXPECT_GT(es_queue, 2 * ufab_queue);
  EXPECT_LT(ufab_queue, 80'000);
}

TEST(SchemeFactory, NamesAndEcnWiring) {
  EXPECT_STREQ(to_string(Scheme::kUfab), "uFAB");
  EXPECT_STREQ(to_string(Scheme::kPwc), "PicNIC'+WCC+Clove");
  const auto base = topo::FabricOptions{};
  EXPECT_LT(fabric_options_for(Scheme::kUfab, base).ecn_threshold_bytes, 0);
  EXPECT_GT(fabric_options_for(Scheme::kPwc, base).ecn_threshold_bytes, 0);
  EXPECT_GT(fabric_options_for(Scheme::kEsClove, base).ecn_threshold_bytes, 0);
}

}  // namespace
}  // namespace ufab::harness
