// Unit tests for the informative core: Bloom filter and CoreAgent registers.
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/link.hpp"
#include "src/sim/node.hpp"
#include "src/telemetry/bloom.hpp"
#include "src/telemetry/core_agent.hpp"

namespace ufab::telemetry {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

TEST(Bloom, InsertContainsRemove) {
  CountingBloomFilter bloom;
  EXPECT_FALSE(bloom.maybe_contains(42));
  bloom.insert(42);
  EXPECT_TRUE(bloom.maybe_contains(42));
  bloom.remove(42);
  EXPECT_FALSE(bloom.maybe_contains(42));
}

TEST(Bloom, NoFalseNegatives) {
  CountingBloomFilter bloom;
  for (std::uint64_t k = 0; k < 5000; ++k) bloom.insert(k * 977 + 13);
  for (std::uint64_t k = 0; k < 5000; ++k) EXPECT_TRUE(bloom.maybe_contains(k * 977 + 13));
}

TEST(Bloom, FalsePositiveRateAtPaperScale) {
  // 20 KB (1-bit cells) / 2 banks with 20K pairs stays under ~5% (§4.2).
  CountingBloomFilter bloom(BloomConfig{163'840, 2});
  for (std::uint64_t k = 0; k < 20'000; ++k) bloom.insert(k * 2654435761ULL + 1);
  int fp = 0;
  const int probes = 20'000;
  for (int i = 0; i < probes; ++i) {
    // Keys disjoint from the inserted set.
    if (bloom.maybe_contains(0xdead000000ULL + static_cast<std::uint64_t>(i))) ++fp;
  }
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 0.08);
  EXPECT_NEAR(bloom.false_positive_rate(), rate, 0.05);
}

TEST(Bloom, CountingSurvivesSharedSlots) {
  CountingBloomFilter bloom(BloomConfig{64, 2});  // tiny: forced collisions
  for (std::uint64_t k = 0; k < 40; ++k) bloom.insert(k);
  for (std::uint64_t k = 0; k < 20; ++k) bloom.remove(k);
  // The remaining 20 keys must still be present (no false negatives from
  // removal of colliding keys thanks to counters).
  int present = 0;
  for (std::uint64_t k = 20; k < 40; ++k) present += bloom.maybe_contains(k) ? 1 : 0;
  EXPECT_EQ(present, 20);
}

/// The dense filter the sparse table replaced — one byte per configured
/// cell, zero-filled up front — kept as the reference it must match.
class DenseBloom {
 public:
  explicit DenseBloom(BloomConfig cfg) : cfg_(cfg), counters_(cfg.counters, 0) {}

  void insert(std::uint64_t key) {
    for (int i = 0; i < cfg_.hashes; ++i) {
      std::uint8_t& c = counters_[slot(key, i)];
      if (c < 15) ++c;
    }
    ++inserted_;
  }
  void remove(std::uint64_t key) {
    for (int i = 0; i < cfg_.hashes; ++i) {
      std::uint8_t& c = counters_[slot(key, i)];
      if (c > 0 && c < 15) --c;  // saturated counters are sticky
    }
    if (inserted_ > 0) --inserted_;
  }
  [[nodiscard]] bool maybe_contains(std::uint64_t key) const {
    for (int i = 0; i < cfg_.hashes; ++i) {
      if (counters_[slot(key, i)] == 0) return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t inserted_count() const { return inserted_; }
  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] double false_positive_rate() const {
    const double bank =
        static_cast<double>(counters_.size()) / static_cast<double>(cfg_.hashes);
    const double p_one = 1.0 - std::exp(-static_cast<double>(inserted_) / bank);
    return std::pow(p_one, cfg_.hashes);
  }
  void clear() {
    counters_.assign(counters_.size(), 0);
    inserted_ = 0;
  }
  [[nodiscard]] std::size_t slot(std::uint64_t key, int i) const {
    std::uint64_t x = key ^ (0xabcdef12u + static_cast<std::uint64_t>(i) * 0x9e37ULL);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    const std::size_t bank_size = counters_.size() / static_cast<std::size_t>(cfg_.hashes);
    return static_cast<std::size_t>(i) * bank_size + x % bank_size;
  }

 private:
  BloomConfig cfg_;
  std::vector<std::uint8_t> counters_;
  std::size_t inserted_ = 0;
};

/// Drives the sparse filter and the dense reference through one seeded
/// script — fresh inserts, inserts of keys that share a cell with a live
/// key, one key inserted 15-20 times (past saturation), removes of live keys
/// (colliding and saturated ones included) and clears — and compares every
/// observable after each step.  Returns the first mismatch, or "".
std::string diff_sparse_against_dense(BloomConfig cfg, std::uint64_t seed) {
  CountingBloomFilter sparse(cfg);
  DenseBloom dense(cfg);
  std::mt19937_64 rng(seed);
  constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << 40) - 1;
  std::vector<std::uint64_t> live;  // inserted, not yet removed (a multiset)
  std::vector<std::uint64_t> ever;  // every key ever inserted
  std::vector<std::uint64_t> never;
  for (std::uint64_t i = 0; i < 64; ++i) never.push_back((std::uint64_t{1} << 41) + i * 7919);

  const auto insert = [&](std::uint64_t key, int times) {
    for (int n = 0; n < times; ++n) {
      sparse.insert(key);
      dense.insert(key);
      live.push_back(key);
    }
    ever.push_back(key);
  };
  constexpr int kSteps = 2000;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = rng() % 100;
    if (step == kSteps / 2 || op == 99) {
      sparse.clear();
      dense.clear();
      live.clear();
    } else if (op < 50 || live.empty()) {
      insert(rng() & kKeyMask, 1);
    } else if (op < 60) {
      const std::uint64_t target = live[rng() % live.size()];
      const int bank = static_cast<int>(rng() % static_cast<std::uint64_t>(cfg.hashes));
      std::uint64_t key = rng() & kKeyMask;
      while (dense.slot(key, bank) != dense.slot(target, bank)) key = rng() & kKeyMask;
      insert(key, 1);
    } else if (op < 63) {
      insert(rng() & kKeyMask, 15 + static_cast<int>(rng() % 6));
    } else {
      const std::size_t i = rng() % live.size();
      sparse.remove(live[i]);
      dense.remove(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    std::ostringstream why;
    for (const std::vector<std::uint64_t>* keys : {&ever, &never}) {
      for (const std::uint64_t key : *keys) {
        if (sparse.maybe_contains(key) != dense.maybe_contains(key)) {
          why << "maybe_contains(" << key << ") ";
          break;
        }
      }
    }
    if (sparse.inserted_count() != dense.inserted_count()) why << "inserted_count ";
    if (sparse.counter_count() != dense.counter_count()) why << "counter_count ";
    if (sparse.false_positive_rate() != dense.false_positive_rate()) why << "false_positive_rate ";
    if (!why.str().empty()) return "step " + std::to_string(step) + ": " + why.str();
  }
  return "";
}

TEST(Bloom, SparseTableMatchesDenseReference) {
  for (const BloomConfig cfg : {BloomConfig{32, 2}, BloomConfig{4096, 2}, BloomConfig{}}) {
    EXPECT_EQ(diff_sparse_against_dense(cfg, 20'220'822), "") << cfg.counters << " cells";
  }
}

// --- CoreAgent ---

class NullNode : public sim::Node {
 public:
  NullNode() : Node(NodeId{0}, "null") {}
  void receive(sim::PacketPtr) override {}
};

sim::PacketPtr make_probe(std::uint64_t reg_key, double phi, double window) {
  auto p = sim::Packet::make(sim::PacketKind::kProbe, VmPairId{VmId{1}, VmId{2}}, TenantId{0},
                             HostId{0}, HostId{1}, sim::kProbeBaseBytes);
  p->probe.reg_key = reg_key;
  p->probe.phi = phi;
  p->probe.window = window;
  return p;
}

struct AgentFixture : ::testing::Test {
  sim::Simulator sim;
  NullNode sink;
  sim::Link link{sim, LinkId{0}, "l", &sink, sim::LinkConfig{10_Gbps, 1_us, 2'000'000, -1, 0.95}};
  CoreConfig cfg;
  AgentFixture() { cfg.clean_period = 1_s; }
};

TEST_F(AgentFixture, RegistersNewPairAndWritesInt) {
  CoreAgent agent(sim, cfg);
  auto p = make_probe(111, 2e9, 30'000);
  agent.on_probe_egress(*p, link, sim.now());
  EXPECT_DOUBLE_EQ(agent.phi_total(), 2e9);
  EXPECT_DOUBLE_EQ(agent.window_total(), 30'000);
  ASSERT_EQ(p->telemetry.size(), 1u);
  EXPECT_DOUBLE_EQ(p->telemetry[0].phi_total, 2e9);
  EXPECT_DOUBLE_EQ(p->telemetry[0].window_total, 30'000);
  EXPECT_EQ(p->telemetry[0].queue_bytes, 0);
  EXPECT_DOUBLE_EQ(p->telemetry[0].capacity.gbit_per_sec(), 10.0);
}

TEST_F(AgentFixture, DeltaUpdatesOnRepeatedProbes) {
  CoreAgent agent(sim, cfg);
  auto p1 = make_probe(111, 2e9, 30'000);
  agent.on_probe_egress(*p1, link, sim.now());
  auto p2 = make_probe(111, 3e9, 10'000);
  agent.on_probe_egress(*p2, link, sim.now());
  EXPECT_DOUBLE_EQ(agent.phi_total(), 3e9);
  EXPECT_DOUBLE_EQ(agent.window_total(), 10'000);
  EXPECT_EQ(agent.active_pairs(), 1u);
}

TEST_F(AgentFixture, AggregatesDistinctPairs) {
  CoreAgent agent(sim, cfg);
  for (int i = 0; i < 10; ++i) {
    auto p = make_probe(1000 + static_cast<std::uint64_t>(i), 1e9, 1000);
    agent.on_probe_egress(*p, link, sim.now());
  }
  EXPECT_DOUBLE_EQ(agent.phi_total(), 1e10);
  EXPECT_DOUBLE_EQ(agent.window_total(), 10'000);
  EXPECT_EQ(agent.active_pairs(), 10u);
}

TEST_F(AgentFixture, FinishProbeDeregistersAndAcks) {
  CoreAgent agent(sim, cfg);
  auto p = make_probe(77, 5e9, 12'000);
  agent.on_probe_egress(*p, link, sim.now());
  auto fin = make_probe(77, 0, 0);
  fin->kind = sim::PacketKind::kFinishProbe;
  agent.on_probe_egress(*fin, link, sim.now());
  EXPECT_DOUBLE_EQ(agent.phi_total(), 0.0);
  EXPECT_DOUBLE_EQ(agent.window_total(), 0.0);
  EXPECT_EQ(fin->probe.finish_acks, 1);
  EXPECT_EQ(agent.active_pairs(), 0u);
  // Finish for an unknown pair still acks (idempotent).
  auto fin2 = make_probe(77, 0, 0);
  fin2->kind = sim::PacketKind::kFinishProbe;
  agent.on_probe_egress(*fin2, link, sim.now());
  EXPECT_EQ(fin2->probe.finish_acks, 1);
}

TEST_F(AgentFixture, SweepRemovesSilentPairs) {
  CoreAgent agent(sim, cfg);
  auto p = make_probe(55, 1e9, 1000);
  agent.on_probe_egress(*p, link, sim.now());
  EXPECT_EQ(agent.active_pairs(), 1u);
  // Pair 55 stays silent; pair 56 keeps probing.
  sim.after(500'000'000_ns * 1, [&] {
    auto q = make_probe(56, 2e9, 2000);
    agent.on_probe_egress(*q, link, sim.now());
  });
  sim.run_until(1500_ms);
  // After one sweep (1 s period): 55 aged out, 56 survives until its own age.
  EXPECT_EQ(agent.active_pairs(), 1u);
  EXPECT_DOUBLE_EQ(agent.phi_total(), 2e9);
}

TEST_F(AgentFixture, BloomFalsePositiveOmitsPair) {
  // With use_bloom and a tiny filter, saturate it so new pairs collide.
  cfg.use_bloom = true;
  cfg.bloom = BloomConfig{8, 2};
  CoreAgent agent(sim, cfg);
  for (std::uint64_t k = 1; k <= 50; ++k) {
    auto p = make_probe(k, 1e9, 1000);
    agent.on_probe_egress(*p, link, sim.now());
  }
  // With 8 counters and 50 keys, most later inserts hit saturated slots and
  // are treated as "seen" without a register entry => omissions counted and
  // registers smaller than the 50e9 truth.
  EXPECT_GT(agent.false_positive_omissions(), 0);
  EXPECT_LT(agent.phi_total(), 50e9);
}

TEST_F(AgentFixture, ExactModeNeverOmits) {
  cfg.use_bloom = false;
  CoreAgent agent(sim, cfg);
  for (std::uint64_t k = 1; k <= 500; ++k) {
    auto p = make_probe(k, 1e9, 1000);
    agent.on_probe_egress(*p, link, sim.now());
  }
  EXPECT_EQ(agent.false_positive_omissions(), 0);
  EXPECT_DOUBLE_EQ(agent.phi_total(), 500e9);
}

}  // namespace
}  // namespace ufab::telemetry
