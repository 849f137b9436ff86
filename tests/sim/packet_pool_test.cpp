// PacketPool recycling: a reused packet must be indistinguishable from a
// freshly constructed one — no route, telemetry, probe, or ECN state may leak
// from its previous life — and packet ids must be deterministic per pool so
// concurrently running variants (harness::ParallelSweep) trace identically.
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/packet.hpp"
#include "src/sim/packet_pool.hpp"

namespace ufab::sim {
namespace {

PacketPtr make_dirty(PacketPool& pool) {
  PacketPtr p = make_packet(pool, PacketKind::kProbe, VmPairId{VmId{7}, VmId{8}}, TenantId{3},
                            HostId{1}, HostId{2}, 1500);
  p->route.push_back(4);
  p->route.push_back(2);
  p->reverse_route.push_back(1);
  p->hop = 2;
  p->seq = 999;
  p->payload = 1400;
  p->message_size = 1 << 20;
  p->last_of_message = true;
  p->ecn_ce = true;
  p->ecn_echo = true;
  p->probe.phi = 3.5;
  p->probe.window = 1e6;
  p->probe.reg_key = 0xdeadbeef;
  p->probe.scout = true;
  IntRecord rec;
  rec.phi_total = 42.0;
  rec.queue_bytes = 4096;
  p->telemetry.push_back(rec);
  p->telemetry.push_back(rec);
  return p;
}

TEST(PacketPool, RecycledPacketCarriesNoStaleState) {
  PacketPool pool;
  Packet* first_addr = nullptr;
  {
    PacketPtr p = make_dirty(pool);
    first_addr = p.get();
  }  // destroyed -> recycled
  EXPECT_EQ(pool.free_count(), pool.allocated());

  PacketPtr p = make_packet(pool, PacketKind::kData, VmPairId{VmId{1}, VmId{2}}, TenantId{0},
                            HostId{0}, HostId{1}, 100);
  // LIFO freelist: storage is reused, not re-allocated.
  EXPECT_EQ(p.get(), first_addr);
  EXPECT_EQ(pool.recycled_total(), 1u);

  // Everything from the previous life is gone.
  EXPECT_EQ(p->kind, PacketKind::kData);
  EXPECT_EQ(p->size_bytes, 100);
  EXPECT_TRUE(p->route.empty());
  EXPECT_TRUE(p->reverse_route.empty());
  EXPECT_EQ(p->hop, 0);
  EXPECT_EQ(p->seq, 0);
  EXPECT_EQ(p->payload, 0);
  EXPECT_EQ(p->message_size, 0);
  EXPECT_FALSE(p->last_of_message);
  EXPECT_TRUE(p->ecn_capable);
  EXPECT_FALSE(p->ecn_ce);
  EXPECT_FALSE(p->ecn_echo);
  EXPECT_EQ(p->probe.phi, 0.0);
  EXPECT_EQ(p->probe.window, 0.0);
  EXPECT_EQ(p->probe.reg_key, 0u);
  EXPECT_FALSE(p->probe.scout);
  EXPECT_TRUE(p->telemetry.empty());
  EXPECT_EQ(p->origin_pool, &pool);
}

TEST(PacketPool, IdsAreFreshAndPerPoolDeterministic) {
  PacketPool a;
  PacketPool b;
  std::vector<std::uint64_t> ids_a;
  std::vector<std::uint64_t> ids_b;
  for (int i = 0; i < 5; ++i) {
    // Recycle between makes so ids keep advancing while storage is reused.
    ids_a.push_back(make_packet(a, PacketKind::kData, VmPairId{}, TenantId{}, HostId{0},
                                HostId{1}, 64)
                        ->id);
    ids_b.push_back(make_packet(b, PacketKind::kData, VmPairId{}, TenantId{}, HostId{0},
                                HostId{1}, 64)
                        ->id);
  }
  EXPECT_EQ(ids_a, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  // A second pool sees the identical sequence: ids are per-run, not global.
  EXPECT_EQ(ids_a, ids_b);
}

TEST(PacketPool, GrowsInChunksAndReusesFreelist) {
  PacketPool pool;
  std::vector<PacketPtr> live;
  for (int i = 0; i < 300; ++i) {
    live.push_back(make_packet(pool, PacketKind::kData, VmPairId{}, TenantId{}, HostId{0},
                               HostId{1}, 64));
  }
  EXPECT_EQ(pool.allocated(), 512u);  // two 256-packet chunks
  EXPECT_EQ(pool.free_count(), 512u - 300u);
  live.clear();
  EXPECT_EQ(pool.free_count(), 512u);

  // Steady state: no new chunks however many make/destroy cycles run.
  for (int i = 0; i < 1000; ++i) {
    const PacketPtr pkt =
        make_packet(pool, PacketKind::kData, VmPairId{}, TenantId{}, HostId{0}, HostId{1}, 64);
  }
  EXPECT_EQ(pool.allocated(), 512u);
  EXPECT_EQ(pool.recycled_total(), 1000u + 300u);  // every destruction recycled
}

TEST(PacketPool, CopyHoldsEveryFieldInItsOwnPool) {
  // A crossing delivers a copy from the destination shard's pool: every
  // field of the original, its id included, with origin_pool its own.
  PacketPool src;
  PacketPool dst;
  PacketPtr original = make_dirty(src);
  original->sent_at = TimeNs{1234};
  PacketPtr copy = dst.copy_of(*original);
  EXPECT_EQ(copy->origin_pool, &dst);
  EXPECT_EQ(copy->id, original->id);
  EXPECT_EQ(copy->kind, PacketKind::kProbe);
  EXPECT_EQ(copy->pair, original->pair);
  EXPECT_EQ(copy->tenant, original->tenant);
  EXPECT_EQ(copy->size_bytes, 1500);
  EXPECT_EQ(copy->route, original->route);
  EXPECT_EQ(copy->reverse_route, original->reverse_route);
  EXPECT_EQ(copy->hop, 2);
  EXPECT_EQ(copy->seq, 999);
  EXPECT_EQ(copy->payload, 1400);
  EXPECT_EQ(copy->message_size, 1 << 20);
  EXPECT_EQ(copy->sent_at, TimeNs{1234});
  EXPECT_TRUE(copy->last_of_message);
  EXPECT_TRUE(copy->ecn_ce);
  EXPECT_TRUE(copy->ecn_echo);
  EXPECT_EQ(copy->probe.phi, 3.5);
  EXPECT_EQ(copy->probe.reg_key, 0xdeadbeefu);
  EXPECT_TRUE(copy->probe.scout);
  ASSERT_EQ(copy->telemetry.size(), 2u);
  EXPECT_EQ(copy->telemetry[1].phi_total, 42.0);
  // The copy drew no id, and each packet goes back to its own pool.
  EXPECT_EQ(make_packet(dst, PacketKind::kData, VmPairId{}, TenantId{}, HostId{0}, HostId{1}, 64)
                ->id,
            1u);
  copy.reset();
  EXPECT_EQ(dst.free_count(), dst.allocated());
  EXPECT_EQ(src.free_count(), src.allocated() - 1);
}

TEST(PacketPool, PoolLessPacketsStillWork) {
  // Packet::make without a pool: heap-allocated, origin_pool null, deleter
  // falls back to delete.  (Tests and setup code use this path.)
  PacketPtr p = Packet::make(PacketKind::kAck, VmPairId{VmId{1}, VmId{2}}, TenantId{1},
                             HostId{3}, HostId{4}, 40);
  EXPECT_EQ(p->origin_pool, nullptr);
  EXPECT_GT(p->id, 0u);
}

}  // namespace
}  // namespace ufab::sim
