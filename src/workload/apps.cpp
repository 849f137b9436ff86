#include "src/workload/apps.hpp"

#include <algorithm>

#include "src/core/assert.hpp"

namespace ufab::workload {

namespace {
/// Tag layout: [app_id:16][kind:8][id:40].
std::uint64_t pack_tag(std::uint16_t app_id, std::uint8_t kind, std::uint64_t id) {
  return (static_cast<std::uint64_t>(app_id) << 48) | (static_cast<std::uint64_t>(kind) << 40) |
         (id & ((1ULL << 40) - 1));
}
std::uint16_t tag_app(std::uint64_t tag) { return static_cast<std::uint16_t>(tag >> 48); }
std::uint8_t tag_kind(std::uint64_t tag) { return static_cast<std::uint8_t>((tag >> 40) & 0xff); }
std::uint64_t tag_id(std::uint64_t tag) { return tag & ((1ULL << 40) - 1); }

void send_app_message(harness::Fabric& fab, VmId src, VmId dst, std::int64_t bytes,
                      std::uint64_t tag) {
  fab.send(VmPairId{src, dst}, bytes, tag);
}

/// The apps keep one RNG and one set of tallies for all their hosts, so on a
/// multi-shard engine every host whose events draw from them or update them
/// must sit on `home`, the shard the app's start event runs on.  Anything
/// else races under worker threads and, even on the sequential executor,
/// draws in an order no shard count reproduces (ROADMAP item 7).
void require_home_shard(harness::Fabric& fab, int home, const std::vector<VmId>& vms) {
  for (const VmId vm : vms) {
    UFAB_CHECK_MSG(fab.shard_of_host(fab.vms().host_of(vm)) == home,
                   "this application model is not shard-safe (one RNG and one set of tallies "
                   "for all its hosts; ROADMAP item 7): run it without UFAB_SHARDS");
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// RpcApp
// ---------------------------------------------------------------------------

RpcApp::Config RpcApp::memcached(TimeNs start, TimeNs stop, std::uint16_t app_id) {
  Config cfg;
  cfg.request_bytes = 100;
  cfg.response_sizes = EmpiricalSizeDist::key_value();
  cfg.start = start;
  cfg.stop = stop;
  cfg.app_id = app_id;
  return cfg;
}

RpcApp::Config RpcApp::mongodb(TimeNs start, TimeNs stop, std::uint16_t app_id) {
  Config cfg;
  cfg.request_bytes = 200;
  cfg.fixed_response_bytes = 500'000;
  cfg.start = start;
  cfg.stop = stop;
  cfg.app_id = app_id;
  return cfg;
}

RpcApp::RpcApp(harness::Fabric& fab, std::vector<VmId> clients, std::vector<VmId> servers,
               Config cfg, Rng rng)
    : fab_(fab), clients_(std::move(clients)), servers_(std::move(servers)), cfg_(cfg),
      rng_(rng) {
  UFAB_CHECK(!clients_.empty() && !servers_.empty());
  // Clients issue requests and tally completions; servers draw response
  // sizes unless the size is fixed.
  const HostId home = fab_.vms().host_of(clients_.front());
  const int home_shard = fab_.shard_of_host(home);
  require_home_shard(fab_, home_shard, clients_);
  if (cfg_.fixed_response_bytes <= 0) require_home_shard(fab_, home_shard, servers_);
  fab_.add_delivery_listener(
      [this](const transport::Message& msg, TimeNs at) { on_delivery(msg, at); });
  fab_.schedule_on_host(home, cfg_.start, [this] {
    for (std::size_t i = 0; i < clients_.size(); ++i) issue(i);
  });
}

std::uint64_t RpcApp::make_tag(bool response, std::uint64_t req_id) const {
  return pack_tag(cfg_.app_id, response ? 2 : 1, req_id);
}

void RpcApp::issue(std::size_t client_idx) {
  if (fab_.sim().now() >= cfg_.stop) return;
  const std::uint64_t req_id = next_req_++;
  const VmId server = servers_[rng_.below(servers_.size())];
  pending_[req_id] = PendingReq{client_idx, fab_.sim().now()};
  send_app_message(fab_, clients_[client_idx], server, cfg_.request_bytes,
                   make_tag(false, req_id));
}

void RpcApp::on_delivery(const transport::Message& msg, TimeNs at) {
  if (tag_app(msg.user_tag) != cfg_.app_id) return;
  const std::uint64_t req_id = tag_id(msg.user_tag);
  if (tag_kind(msg.user_tag) == 1) {
    // Request reached the server: return the value to the client VM.
    const std::int64_t bytes = cfg_.fixed_response_bytes > 0
                                   ? cfg_.fixed_response_bytes
                                   : cfg_.response_sizes.sample(rng_);
    send_app_message(fab_, msg.pair.dst, msg.pair.src, bytes, make_tag(true, req_id));
    return;
  }
  // Response reached the client.
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  qct_us_.add((at - it->second.issued).us());
  completions_.push_back(at);
  ++completed_;
  const std::size_t client = it->second.client_idx;
  pending_.erase(it);
  issue(client);  // closed loop
}

double RpcApp::qps(TimeNs from, TimeNs to) const {
  std::int64_t n = 0;
  for (const TimeNs t : completions_) {
    if (t >= from && t < to) ++n;
  }
  const double window_sec = (to - from).sec();
  return window_sec <= 0.0 ? 0.0 : static_cast<double>(n) / window_sec;
}

// ---------------------------------------------------------------------------
// EbsApp
// ---------------------------------------------------------------------------

EbsApp::EbsApp(harness::Fabric& fab, std::vector<VmId> storage_agents,
               std::vector<VmId> block_agents, std::vector<VmId> chunk_servers,
               std::vector<VmId> gc_agents, Config cfg, Rng rng)
    : fab_(fab),
      sas_(std::move(storage_agents)),
      bas_(std::move(block_agents)),
      css_(std::move(chunk_servers)),
      gcs_(std::move(gc_agents)),
      cfg_(cfg),
      rng_(rng) {
  UFAB_CHECK(!sas_.empty() && !bas_.empty() && !css_.empty());
  UFAB_CHECK(static_cast<int>(css_.size()) >= cfg_.replicas);
  // Every role touches the shared block/GC tables or the RNG.
  const HostId home = fab_.vms().host_of(sas_.front());
  const int home_shard = fab_.shard_of_host(home);
  for (const auto* role : {&sas_, &bas_, &css_, &gcs_}) require_home_shard(fab_, home_shard, *role);
  fab_.add_delivery_listener(
      [this](const transport::Message& msg, TimeNs at) { on_delivery(msg, at); });
  fab_.schedule_on_host(home, cfg_.start, [this] {
    for (std::size_t i = 0; i < sas_.size(); ++i) sa_tick(i);
    for (std::size_t i = 0; i < gcs_.size(); ++i) gc_tick(i);
  });
}

std::uint64_t EbsApp::make_tag(Kind kind, std::uint64_t id) const {
  return pack_tag(cfg_.app_id, static_cast<std::uint8_t>(kind), id);
}

void EbsApp::sa_tick(std::size_t sa_idx) {
  if (fab_.sim().now() >= cfg_.stop) return;
  const std::uint64_t id = next_id_++;
  const VmId ba = bas_[rng_.below(bas_.size())];
  blocks_[id] = BlockTask{fab_.sim().now(), TimeNs::zero(), cfg_.replicas};
  send_app_message(fab_, sas_[sa_idx], ba, cfg_.block_bytes, make_tag(Kind::kSaBlock, id));
  fab_.sim().after(cfg_.sa_period, [this, sa_idx] { sa_tick(sa_idx); });
}

void EbsApp::gc_tick(std::size_t gc_idx) {
  if (fab_.sim().now() >= cfg_.stop) return;
  const std::uint64_t id = next_id_++;
  const VmId cs = css_[rng_.below(css_.size())];
  gc_reads_[id] = fab_.sim().now();
  // Small read request; the chunk server answers with the block (kGcRead).
  send_app_message(fab_, gcs_[gc_idx], cs, 200, make_tag(Kind::kGcRead, id));
  fab_.sim().after(cfg_.gc_period, [this, gc_idx] { gc_tick(gc_idx); });
}

void EbsApp::on_delivery(const transport::Message& msg, TimeNs at) {
  if (tag_app(msg.user_tag) != cfg_.app_id) return;
  const std::uint64_t id = tag_id(msg.user_tag);
  switch (static_cast<Kind>(tag_kind(msg.user_tag))) {
    case Kind::kSaBlock: {
      auto it = blocks_.find(id);
      if (it == blocks_.end()) return;
      it->second.sa_done = at;
      sa_tct_ms_.add((at - it->second.created).ms());
      // Block Agent replicates to `replicas` distinct chunk servers.
      std::vector<std::size_t> order(css_.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (int r = 0; r < cfg_.replicas; ++r) {
        const auto j =
            static_cast<std::size_t>(r) + rng_.below(order.size() - static_cast<std::size_t>(r));
        std::swap(order[static_cast<std::size_t>(r)], order[j]);
        send_app_message(fab_, msg.pair.dst, css_[order[static_cast<std::size_t>(r)]],
                         cfg_.block_bytes, make_tag(Kind::kReplica, id));
      }
      return;
    }
    case Kind::kReplica: {
      auto it = blocks_.find(id);
      if (it == blocks_.end()) return;
      if (--it->second.replicas_pending == 0) {
        ba_tct_ms_.add((at - it->second.sa_done).ms());
        total_tct_ms_.add((at - it->second.created).ms());
        ++blocks_completed_;
        blocks_.erase(it);
      }
      return;
    }
    case Kind::kGcRead: {
      // The read request reached the chunk server if dst is a CS; the data
      // reached the GC if dst is a GC agent. Distinguish by membership.
      const bool at_chunk_server =
          std::find(css_.begin(), css_.end(), msg.pair.dst) != css_.end();
      if (at_chunk_server) {
        // Serve the read: chunk server returns the block to the GC agent.
        send_app_message(fab_, msg.pair.dst, msg.pair.src, cfg_.block_bytes,
                         make_tag(Kind::kGcRead, id));
      } else {
        // GC received the data; write the compressed block back.
        send_app_message(fab_, msg.pair.dst, msg.pair.src, cfg_.block_bytes,
                         make_tag(Kind::kGcWrite, id));
      }
      return;
    }
    case Kind::kGcWrite: {
      auto it = gc_reads_.find(id);
      if (it == gc_reads_.end()) return;
      gc_tct_ms_.add((at - it->second).ms());
      gc_reads_.erase(it);
      return;
    }
  }
}

}  // namespace ufab::workload
