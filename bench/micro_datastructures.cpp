// Microbenchmarks for the hot data-plane data structures (google-benchmark):
// the switch Bloom filter, the WFQ scheduler, the event queue, and the
// per-probe INT processing path.
#include <benchmark/benchmark.h>

#include <thread>

#include "src/harness/experiment.hpp"
#include "src/sim/link.hpp"
#include "src/sim/node.hpp"
#include "src/sim/shard_sync.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/switch.hpp"
#include "src/telemetry/bloom.hpp"
#include "src/telemetry/core_agent.hpp"
#include "src/telemetry/int_codec.hpp"
#include "src/ufab/token_assigner.hpp"
#include "src/ufab/wfq.hpp"
#include "src/workload/sources.hpp"

namespace {

using namespace ufab;
using namespace ufab::time_literals;
using namespace ufab::unit_literals;

void BM_BloomInsert(benchmark::State& state) {
  telemetry::CountingBloomFilter bloom;
  std::uint64_t key = 1;
  for (auto _ : state) {
    bloom.insert(key++);
    if ((key & 0x3fff) == 0) bloom.clear();
  }
}
BENCHMARK(BM_BloomInsert);

void BM_BloomLookup(benchmark::State& state) {
  telemetry::CountingBloomFilter bloom;
  for (std::uint64_t k = 0; k < 20'000; ++k) bloom.insert(k * 7919);
  std::uint64_t key = 1;
  bool hit = false;
  for (auto _ : state) {
    hit ^= bloom.maybe_contains(key++);
  }
  benchmark::DoNotOptimize(hit);
}
BENCHMARK(BM_BloomLookup);

void BM_WfqNext(benchmark::State& state) {
  edge::WfqScheduler wfq(1.0);
  const auto entities = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t e = 1; e <= entities; ++e) {
    const TenantId t{static_cast<std::int32_t>(e % 16)};
    wfq.set_tenant_weight(t, static_cast<double>(1 + e % 8));
    wfq.add(t, e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wfq.next([](std::uint64_t) { return 1500; }));
  }
}
BENCHMARK(BM_WfqNext)->Arg(8)->Arg(64)->Arg(512);

// The in-situ shape: most VM pairs on a NIC are idle at any instant (the
// fig13 testbed has ~200 pairs per client NIC, and 62% of its pulls find
// nothing to send).  Four of 512 entities, in four tenants, stay sendable;
// the first pull disarms the idle rest, and later pulls never visit them.
void BM_WfqNextSparse(benchmark::State& state) {
  edge::WfqScheduler wfq(1.0);
  for (std::uint64_t e = 1; e <= 512; ++e) {
    const TenantId t{static_cast<std::int32_t>(e % 16)};
    wfq.set_tenant_weight(t, static_cast<double>(1 + e % 8));
    wfq.add(t, e);
  }
  const auto sendable = [](std::uint64_t e) { return e % 129 == 1 ? 1500 : 0; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(wfq.next(sendable));
  }
}
BENCHMARK(BM_WfqNextSparse);

void BM_EventQueue(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 1;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.at(TimeNs{t + (i * 7919) % 1000}, [] {});
    }
    sim.run();
    t += 1000;
  }
  benchmark::DoNotOptimize(sim.events_processed());
}
BENCHMARK(BM_EventQueue);

/// Dense tie-heavy pattern: bursts land in one calendar bucket (same-time
/// events exercise the FIFO tie-break path and per-bucket heap sifting).
void BM_EventQueueBurst(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 1;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.at(TimeNs{t + (i & 3)}, [] {});
    }
    sim.run();
    t += 50;
  }
  benchmark::DoNotOptimize(sim.events_processed());
}
BENCHMARK(BM_EventQueueBurst);

/// Far-horizon pattern: every event lands beyond the calendar's near window,
/// exercising the overflow tier, migration, and compaction.
void BM_EventQueueFarHorizon(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 1;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.at(TimeNs{t + 700'000 + i * 997}, [] {});
    }
    sim.run();
    t = sim.now().ns() + 1;
  }
  benchmark::DoNotOptimize(sim.events_processed());
}
BENCHMARK(BM_EventQueueFarHorizon);

/// Sparse pattern at the soak harness's density: 64 events ~10 us apart,
/// about 20 empty 512 ns buckets between consecutive events, so every lookup
/// crosses idle simulated time (the occupancy bitmap's case).
void BM_EventQueueSparse(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 1;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.at(TimeNs{t + i * 10'000 + (i * 7919) % 1000}, [] {});
    }
    sim.run();
    t += 64 * 10'000;
  }
  benchmark::DoNotOptimize(sim.events_processed());
}
BENCHMARK(BM_EventQueueSparse);

/// Cross-shard handoff cost: one window's worth of mailbox posts, the single
/// release-store flush, and the receiver's acquire-drain.
void BM_ShardMailbox(benchmark::State& state) {
  sim::ShardMailbox<std::uint64_t> box;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 256; ++i) box.post(i);
    box.flush();
    box.drain([&sum](std::uint64_t v) { sum += v; });
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_ShardMailbox);

/// Batched handoff at varying batch sizes: amortization of the publish —
/// posts are plain stores, so per-item cost should fall as the batch grows
/// (one release/acquire pair per batch, not per item).
void BM_MailboxBatch(benchmark::State& state) {
  sim::ShardMailbox<std::uint64_t> box;
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < batch; ++i) box.post(i);
    box.flush();
    box.drain([&sum](std::uint64_t v) { sum += v; });
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MailboxBatch)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

/// Full epoch-barrier round trip with three parked workers: release, three
/// empty passes, wait_all_done — the fixed synchronization overhead every
/// sharded epoch pays regardless of work.
void BM_EpochBarrier(benchmark::State& state) {
  constexpr int kWorkers = 3;
  sim::EpochBarrier barrier(kWorkers);
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&barrier] {
      std::uint64_t gen = 0;
      while (barrier.wait_for_pass(gen)) barrier.arrive_done();
    });
  }
  std::uint64_t gen = 0;
  for (auto _ : state) {
    barrier.release(++gen);
    barrier.wait_all_done();
  }
  barrier.shutdown();
  for (auto& t : workers) t.join();
}
BENCHMARK(BM_EpochBarrier)->UseRealTime();

/// Synchronization amortization end to end: a two-shard lookahead-limited
/// workload (self-rescheduling chains + periodic crossings) run to a fixed
/// horizon with N lookahead windows per coordinator barrier.  Arg(1) pays one
/// barrier per window; higher args show what multi-window epochs save.
/// Sequential executor so the number isolates epoch overhead rather than
/// thread scheduling noise.
void BM_AdaptiveEpoch(benchmark::State& state) {
  const int windows = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim.configure_shards(2, TimeNs{1'000}, sim::ShardExec::kSequential);
    sim.set_epoch_windows(windows);
    struct Chain {
      sim::Simulator* sim;
      int self;
      void fire() {
        if (sim->now() < TimeNs{400'000}) {
          sim->after(TimeNs{self == 0 ? 331 : 457}, [this] { fire(); });
        }
      }
    };
    Chain chains[2] = {{&sim, 0}, {&sim, 1}};
    for (int s = 0; s < 2; ++s) {
      const auto scope = sim.scoped(s);
      sim.at(TimeNs{10 + s}, [chain = &chains[s]] { chain->fire(); });
    }
    sim.run_until(TimeNs{500'000});
    events += sim.events_processed();
  }
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_AdaptiveEpoch)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

/// Pooled packet make/destroy churn with realistic field traffic — the
/// per-packet cost transport and the links pay on every hop.
void BM_PacketMake(benchmark::State& state) {
  sim::Simulator sim;
  auto& pool = sim.packet_pool();
  for (auto _ : state) {
    sim::PacketPtr p =
        sim::make_packet(pool, sim::PacketKind::kData, VmPairId{VmId{1}, VmId{2}}, TenantId{0},
                         HostId{0}, HostId{1}, 1500);
    for (int h = 0; h < 4; ++h) p->route.push_back(h);
    p->seq = 4096;
    p->payload = 1400;
    benchmark::DoNotOptimize(p->id);
  }
  benchmark::DoNotOptimize(pool.recycled_total());
}
BENCHMARK(BM_PacketMake);

class NullNode final : public sim::Node {
 public:
  NullNode() : Node(NodeId{0}, "null") {}
  void receive(sim::PacketPtr) override {}
};

void BM_CoreAgentProbe(benchmark::State& state) {
  sim::Simulator sim;
  NullNode sink;
  sim::Link link(sim, LinkId{0}, "l", &sink, sim::LinkConfig{});
  telemetry::CoreConfig cfg;
  cfg.clean_period = TimeNs::zero();  // no sweeps during the benchmark
  telemetry::CoreAgent agent(sim, cfg);
  std::uint64_t key = 1;
  for (auto _ : state) {
    auto p = sim::Packet::make(sim::PacketKind::kProbe, VmPairId{VmId{1}, VmId{2}}, TenantId{0},
                               HostId{0}, HostId{1}, sim::kProbeBaseBytes);
    p->probe.reg_key = key;
    key = key % 8192 + 1;  // steady-state pair population
    p->probe.phi = 1e9;
    p->probe.window = 30'000;
    agent.on_probe_egress(*p, link, sim.now());
    benchmark::DoNotOptimize(p->telemetry.size());
  }
}
BENCHMARK(BM_CoreAgentProbe);

void BM_TokenAssignment(benchmark::State& state) {
  std::vector<edge::SenderPairView> pairs(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pairs[i].demand_tokens = i % 3 == 0 ? 1e5 : 1e30;
    pairs[i].receiver_tokens = 1e9;
    pairs[i].receiver_known = i % 2 == 0;
  }
  for (auto _ : state) {
    edge::assign_tokens(1e10, pairs);
    benchmark::DoNotOptimize(pairs.back().assigned);
  }
}
BENCHMARK(BM_TokenAssignment)->Arg(8)->Arg(128);

/// A 1 ms slice of the fig17 workload (uFAB on a k=4 FatTree, websearch
/// sizes at load 0.5): the end-to-end engine benchmark — event queue, packet
/// pool, links, transport, and telemetry together.  Tracks the same path
/// scripts/run_perf.sh times at full scale.  Only run_until is timed: the
/// experiment's construction and teardown run with timing paused, so the
/// number (and the profiler-overhead guard built on it) reads the run loop,
/// not how the allocator happens to trim the heap between iterations.
void BM_Fig17Slice(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto exp = std::make_unique<harness::Experiment>(
        harness::Scheme::kUfab,
        [](sim::Simulator& s, const topo::FabricOptions& o) {
          return topo::make_fat_tree(s, 4, 1, o);
        },
        topo::FabricOptions{}, harness::SchemeOptions{}, 41);
    auto& fab = exp->fab();
    auto& vms = fab.vms();
    std::vector<VmPairId> pairs;
    Rng pair_rng = fab.rng().fork("pairs");
    const int hosts = static_cast<int>(fab.net().host_count());
    const TenantId tid = vms.add_tenant("T0", Bandwidth::gbps(1.0));
    std::vector<VmId> tvms;
    for (int h = 0; h < hosts; ++h) tvms.push_back(vms.add_vm(tid, HostId{h}));
    for (int h = 0; h < hosts; ++h) {
      int peer = static_cast<int>(pair_rng.below(static_cast<std::uint64_t>(hosts)));
      if (peer == h) peer = (peer + 1) % hosts;
      pairs.push_back(
          VmPairId{tvms[static_cast<std::size_t>(h)], tvms[static_cast<std::size_t>(peer)]});
    }
    workload::PoissonFlowGenerator::Config gcfg;
    gcfg.target_load = 0.5;
    gcfg.stop = 1_ms;
    auto gen = std::make_unique<workload::PoissonFlowGenerator>(
        fab, pairs, workload::EmpiricalSizeDist::websearch(), gcfg, fab.rng().fork("flows"));
    state.ResumeTiming();
    fab.sim().run_until(1500_us);
    state.PauseTiming();
    benchmark::DoNotOptimize(fab.sim().events_processed());
    gen.reset();
    exp.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Fig17Slice)->Unit(benchmark::kMillisecond);

/// One busy link delivering bursts end to end, plain pipe vs the same pipe
/// with wire-exit events (Arg: 1 = plain, 0 = wire-exit events, the option
/// flapped links carry).  The plain link should win on events scheduled (one
/// calendar entry per busy link instead of two per packet) and therefore on
/// ns/packet (DESIGN.md §13.1).
void BM_LinkPipelineHop(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  constexpr int kBursts = 64;
  constexpr int kPerBurst = 8;
  for (auto _ : state) {
    sim::Simulator sim;
    NullNode sink;
    sim::Link link(sim, LinkId{0}, "l", &sink,
                   sim::LinkConfig{Bandwidth::gbps(10.0), 1_us, 1 << 20, -1, 0.95});
    if (!fused) link.enable_wire_exit();
    auto& pool = sim.packet_pool();
    for (int b = 0; b < kBursts; ++b) {
      sim.at(TimeNs{1 + b * 15'000}, [&link, &pool] {
        for (int i = 0; i < kPerBurst; ++i) {
          link.enqueue(sim::make_packet(pool, sim::PacketKind::kData,
                                        VmPairId{VmId{1}, VmId{2}}, TenantId{0}, HostId{0},
                                        HostId{1}, 1500));
        }
      });
    }
    sim.run();
    benchmark::DoNotOptimize(link.tx_bytes_cum());
  }
  state.SetItemsProcessed(state.iterations() * kBursts * kPerBurst);
}
BENCHMARK(BM_LinkPipelineHop)->Arg(0)->Arg(1);

/// The forwarding decision in isolation (Arg: 0 = source route consult,
/// 1 = legacy nested-vector ECMP walk, 2 = compiled flat FIB).  The flat FIB
/// turns the common single-path case into one dense array load and keeps the
/// multi-path hash bit-identical via a CSR candidate pool.
void BM_FlatFib(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  sim::Simulator sim;
  sim::Switch sw(sim, NodeId{0}, "sw");
  NullNode sink;
  constexpr int kPorts = 16;
  constexpr int kHosts = 256;
  for (int p = 0; p < kPorts; ++p) {
    sw.add_port(std::make_unique<sim::Link>(sim, LinkId{p}, "l", &sink, sim::LinkConfig{}));
  }
  for (int h = 0; h < kHosts; ++h) {
    if (h % 4 == 0) {
      sw.set_ecmp_ports(HostId{h}, {h % kPorts, (h + 5) % kPorts, (h + 11) % kPorts});
    } else {
      sw.set_ecmp_ports(HostId{h}, {h % kPorts});
    }
  }
  if (mode == 2) sw.compile_fib();
  auto pkt = sim::Packet::make(sim::PacketKind::kData, VmPairId{VmId{1}, VmId{2}}, TenantId{0},
                               HostId{0}, HostId{3}, 1500);
  for (int h = 0; h < 6; ++h) pkt->route.push_back((h * 3) % kPorts);
  std::int32_t acc = 0;
  int dst = 0;
  for (auto _ : state) {
    pkt->dst_host = HostId{dst};
    dst = (dst + 1) % kHosts;
    if (mode == 0) {
      // What receive() does for a source-routed packet: read route[hop].
      acc ^= pkt->route[static_cast<std::size_t>(pkt->hop)];
      pkt->hop = (pkt->hop + 1) % static_cast<std::int32_t>(pkt->route.size());
    } else {
      acc ^= sw.forwarding_port(*pkt);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatFib)->Arg(0)->Arg(1)->Arg(2);

/// INT record quantization: the legacy wire-struct round trip (encode to the
/// packed struct, decode back) vs the fused in-place path used on probe
/// egress (same bit outcomes, no intermediate EncodedIntRecord).  Arg: 0 =
/// round trip, 1 = inline.
void BM_IntEncodeInline(benchmark::State& state) {
  const bool inline_path = state.range(0) != 0;
  sim::IntRecord proto;
  proto.link = LinkId{3};
  proto.phi_total = 2.5e9;
  proto.window_total = 1.8e8;
  proto.tx_bytes_cum = 123'456'789;
  proto.stamp = TimeNs{1'000'000};
  proto.tx_rate_hint = Bandwidth::gbps(7.3);
  proto.queue_bytes = 48'000;
  proto.capacity = Bandwidth::gbps(10.0);
  const int cls = telemetry::IntCodec::speed_class(proto.capacity);
  for (auto _ : state) {
    sim::IntRecord rec = proto;
    if (inline_path) {
      telemetry::IntCodec::quantize_inline(rec, cls);
    } else {
      telemetry::IntCodec::quantize(rec);
    }
    benchmark::DoNotOptimize(rec.queue_bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntEncodeInline)->Arg(0)->Arg(1);

/// Cost of one enabled ProfScope token (two clock reads + slice add) — the
/// per-call price of every level-2 detailed scope (WFQ next, telemetry
/// ingest, mailbox post).  Level-1 loop attribution pays one such pair only
/// every timing_stride events (counts stay exact), so this number divided by
/// the stride bounds the profiler's per-event overhead; the run_perf.sh
/// guard checks the realized end-to-end figure.
void BM_ProfScope(benchmark::State& state) {
  obs::ProfSlice slice;
  for (auto _ : state) {
    const obs::ProfScope scope(&slice, obs::ProfCat::kWfq);
    benchmark::DoNotOptimize(&slice);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScope);

/// The same token with profiling off (null slice): the cost left behind in
/// hot paths that carry a permanent UFAB_PROF_SCOPE — a pointer test, no
/// clock reads.
void BM_ProfScopeDisabled(benchmark::State& state) {
  for (auto _ : state) {
    const obs::ProfScope scope(nullptr, obs::ProfCat::kWfq);
    benchmark::DoNotOptimize(&state);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScopeDisabled);

}  // namespace
