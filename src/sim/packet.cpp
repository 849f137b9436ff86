#include "src/sim/packet.hpp"

#include <atomic>

namespace ufab::sim {

namespace {
/// Id source for pool-less packets (tests, setup code).  Pooled packets draw
/// from their pool's counter instead, which keeps ids deterministic per run
/// even when several runs execute concurrently on worker threads.
std::atomic<std::uint64_t> g_fallback_packet_id{1};
}  // namespace

const char* to_string(PacketKind kind) {
  switch (kind) {
    case PacketKind::kData:
      return "data";
    case PacketKind::kAck:
      return "ack";
    case PacketKind::kProbe:
      return "probe";
    case PacketKind::kProbeResponse:
      return "probe-resp";
    case PacketKind::kFinishProbe:
      return "finish";
    case PacketKind::kCredit:
      return "credit";
  }
  return "?";
}

void PacketDeleter::operator()(Packet* p) const {
  if (p == nullptr) return;
  if (p->origin_pool != nullptr) {
    p->origin_pool->put(p);
  } else {
    delete p;
  }
}

void Packet::reset_for_reuse() {
  kind = PacketKind::kData;
  id = 0;
  pair = VmPairId{};
  tenant = TenantId{};
  message_id = 0;
  size_bytes = 0;
  src_host = HostId{};
  dst_host = HostId{};
  route.clear();
  hop = 0;
  path_tag = PathId{};
  reverse_route.clear();
  seq = 0;
  payload = 0;
  message_size = 0;
  acked_packet_id = 0;
  msg_created = TimeNs::zero();
  user_tag = 0;
  last_of_message = false;
  sent_at = TimeNs::zero();
  ecn_capable = true;
  ecn_ce = false;
  ecn_echo = false;
  credit_rate = Bandwidth::zero();
  probe = ProbeFields{};
  telemetry.clear();
  // origin_pool is the packet's identity, not per-life state: keep it.
}

namespace {
void init_packet(Packet& p, std::uint64_t id, PacketKind kind, VmPairId pair, TenantId tenant,
                 HostId src, HostId dst, std::int32_t size_bytes) {
  p.kind = kind;
  p.id = id;
  p.pair = pair;
  p.tenant = tenant;
  p.src_host = src;
  p.dst_host = dst;
  p.size_bytes = size_bytes;
}
}  // namespace

PacketPtr Packet::make(PacketKind kind, VmPairId pair, TenantId tenant, HostId src, HostId dst,
                       std::int32_t size_bytes) {
  PacketPtr p{new Packet()};
  init_packet(*p, g_fallback_packet_id.fetch_add(1, std::memory_order_relaxed), kind, pair,
              tenant, src, dst, size_bytes);
  return p;
}

PacketPtr make_packet(PacketPool& pool, PacketKind kind, VmPairId pair, TenantId tenant,
                      HostId src, HostId dst, std::int32_t size_bytes) {
  PacketPtr p{pool.take()};
  init_packet(*p, pool.next_packet_id(), kind, pair, tenant, src, dst, size_bytes);
  return p;
}

// --- PacketPool (needs the complete Packet type) ---

PacketPool::PacketPool() = default;
PacketPool::~PacketPool() = default;

Packet* PacketPool::take() {
  if (free_.empty()) {
    auto chunk = std::make_unique<Packet[]>(kChunkPackets);
    free_.reserve(free_.size() + kChunkPackets);
    // Pushed in reverse so the freelist hands out packets in address order.
    for (std::size_t i = kChunkPackets; i-- > 0;) {
      chunk[i].origin_pool = this;
      free_.push_back(&chunk[i]);
    }
    chunks_.push_back(std::move(chunk));
    allocated_ += kChunkPackets;
  }
  Packet* p = free_.back();
  free_.pop_back();
  ++in_use_;
  if (in_use_ > in_use_hwm_) in_use_hwm_ = in_use_;
  return p;
}

PacketPtr PacketPool::copy_of(const Packet& src) {
  Packet* p = take();
  *p = src;
  p->origin_pool = this;
  return PacketPtr{p};
}

void PacketPool::put(Packet* p) {
  p->reset_for_reuse();
  free_.push_back(p);
  ++recycled_;
  --in_use_;
}

}  // namespace ufab::sim
