// Application models for §5.3: Memcached / MongoDB (ECS) and the EBS
// storage pipeline.
//
// The models reproduce the network-visible behaviour of the applications —
// message sizes, fan-outs, arrival cadence and request/response dependencies
// — on top of any transport scheme, and account QPS / QCT / TCT exactly as
// the paper reports them.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/harness/fabric.hpp"
#include "src/stats/percentile.hpp"
#include "src/workload/distributions.hpp"

namespace ufab::workload {

/// Closed-loop request/response application (Memcached and MongoDB shapes).
///
/// Each client repeatedly: picks a random server VM, sends a small request,
/// waits for the response (sized from a distribution or fixed), records the
/// query completion time, then immediately issues the next request.
///
/// One RNG and one set of tallies serve every host, so on a multi-shard
/// engine the constructor fails unless every client — and every server, when
/// response sizes are drawn — sits on one shard (ROADMAP item 7).
class RpcApp {
 public:
  struct Config {
    std::int32_t request_bytes = 100;
    /// Response size distribution; ignored when fixed_response_bytes > 0.
    EmpiricalSizeDist response_sizes = EmpiricalSizeDist::key_value();
    std::int64_t fixed_response_bytes = 0;
    TimeNs start = TimeNs::zero();
    TimeNs stop = TimeNs::max();
    std::uint16_t app_id = 1;  ///< Disambiguates user_tag namespaces.
  };

  /// Memcached defaults: 100 B requests, key-value response sizes (~2 KB).
  static Config memcached(TimeNs start, TimeNs stop, std::uint16_t app_id);
  /// MongoDB defaults: clients continuously fetch 500 KB documents.
  static Config mongodb(TimeNs start, TimeNs stop, std::uint16_t app_id);

  RpcApp(harness::Fabric& fab, std::vector<VmId> clients, std::vector<VmId> servers,
         Config cfg, Rng rng);

  [[nodiscard]] const PercentileTracker& qct_us() const { return qct_us_; }
  [[nodiscard]] std::int64_t completed() const { return completed_; }
  /// Queries per second over [from, to).
  [[nodiscard]] double qps(TimeNs from, TimeNs to) const;

 private:
  void issue(std::size_t client_idx);
  void on_delivery(const transport::Message& msg, TimeNs at);
  [[nodiscard]] std::uint64_t make_tag(bool response, std::uint64_t req_id) const;

  harness::Fabric& fab_;
  std::vector<VmId> clients_;
  std::vector<VmId> servers_;
  Config cfg_;
  Rng rng_;
  std::uint64_t next_req_ = 1;

  struct PendingReq {
    std::size_t client_idx;
    TimeNs issued;
  };
  std::unordered_map<std::uint64_t, PendingReq> pending_;
  PercentileTracker qct_us_;
  std::vector<TimeNs> completions_;
  std::int64_t completed_ = 0;
};

/// EBS storage pipeline (§5.3): Storage Agents stream 64 KB writes to Block
/// Agents; each Block Agent replicates the block to three Chunk Servers;
/// a Garbage Collector does periodic read-modify-write cycles against Chunk
/// Servers. Task completion times are tracked per stage and end to end.
///
/// One RNG and one set of tables serve every role, so on a multi-shard
/// engine the constructor fails unless all of its hosts sit on one shard
/// (ROADMAP item 7).
class EbsApp {
 public:
  struct Config {
    std::int64_t block_bytes = 64'000;
    TimeNs sa_period = TimeNs{320'000};  ///< One block per SA every 320 us.
    TimeNs gc_period = TimeNs{1'000'000};
    int replicas = 3;
    TimeNs start = TimeNs::zero();
    TimeNs stop = TimeNs::max();
    std::uint16_t app_id = 7;
  };

  EbsApp(harness::Fabric& fab, std::vector<VmId> storage_agents, std::vector<VmId> block_agents,
         std::vector<VmId> chunk_servers, std::vector<VmId> gc_agents, Config cfg, Rng rng);

  [[nodiscard]] const PercentileTracker& sa_tct_ms() const { return sa_tct_ms_; }
  [[nodiscard]] const PercentileTracker& ba_tct_ms() const { return ba_tct_ms_; }
  [[nodiscard]] const PercentileTracker& total_tct_ms() const { return total_tct_ms_; }
  [[nodiscard]] const PercentileTracker& gc_tct_ms() const { return gc_tct_ms_; }
  [[nodiscard]] std::int64_t blocks_completed() const { return blocks_completed_; }

 private:
  enum class Kind : std::uint8_t { kSaBlock = 1, kReplica = 2, kGcRead = 3, kGcWrite = 4 };

  void sa_tick(std::size_t sa_idx);
  void gc_tick(std::size_t gc_idx);
  void on_delivery(const transport::Message& msg, TimeNs at);
  [[nodiscard]] std::uint64_t make_tag(Kind kind, std::uint64_t id) const;

  harness::Fabric& fab_;
  std::vector<VmId> sas_;
  std::vector<VmId> bas_;
  std::vector<VmId> css_;
  std::vector<VmId> gcs_;
  Config cfg_;
  Rng rng_;
  std::uint64_t next_id_ = 1;

  struct BlockTask {
    TimeNs created;
    TimeNs sa_done = TimeNs::zero();
    int replicas_pending = 0;
  };
  std::unordered_map<std::uint64_t, BlockTask> blocks_;
  std::unordered_map<std::uint64_t, TimeNs> gc_reads_;  // id -> issue time

  PercentileTracker sa_tct_ms_;
  PercentileTracker ba_tct_ms_;
  PercentileTracker total_tct_ms_;
  PercentileTracker gc_tct_ms_;
  std::int64_t blocks_completed_ = 0;
};

}  // namespace ufab::workload
