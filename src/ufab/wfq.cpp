#include "src/ufab/wfq.hpp"

#include <algorithm>
#include <cmath>

namespace ufab::edge {

int WfqScheduler::weight_to_level(double weight) const {
  if (weight <= base_weight_) return 0;
  const int level = static_cast<int>(std::floor(std::log2(weight / base_weight_) + 0.5));
  return std::clamp(level, 0, kLevels - 1);
}

std::uint32_t WfqScheduler::tenant_queue(TenantId tenant, int level) {
  auto [it, inserted] =
      tenant_index_.try_emplace(tenant.value(), static_cast<std::uint32_t>(tenants_.size()));
  if (inserted) {
    TenantQueue tq;
    tq.tenant = tenant;
    tq.level = level;
    tenants_.push_back(std::move(tq));
  }
  return it->second;
}

void WfqScheduler::unlist(std::uint32_t tenant) {
  const TenantQueue& tq = tenants_[tenant];
  Level& L = levels_[tq.level];
  L.tenants.erase(std::find(L.tenants.begin(), L.tenants.end(), tenant));
  L.cursor = 0;
  L.armed -= tq.armed_count;
}

void WfqScheduler::set_tenant_weight(TenantId tenant, double weight) {
  const int level = weight_to_level(weight);
  const std::uint32_t ti = tenant_queue(tenant, level);
  TenantQueue& tq = tenants_[ti];
  if (tq.level == level) return;
  if (tq.entities.empty()) {
    tq.level = level;
    return;
  }
  // A listed tenant moves to the back of its new level's rotation, with its
  // own cursor restarted.
  unlist(ti);
  tq.level = level;
  tq.cursor = 0;
  levels_[level].tenants.push_back(ti);
  levels_[level].armed += tq.armed_count;
}

void WfqScheduler::add(TenantId tenant, std::uint64_t entity) {
  UFAB_CHECK_MSG(entity != 0, "WFQ entity 0 is reserved for 'none'");
  if (entity >= slots_.size()) slots_.resize(entity + 1);
  UFAB_CHECK_MSG(slots_[entity].tenant == kNoTenant, "WFQ entity added twice");
  const std::uint32_t ti = tenant_queue(tenant, weight_to_level(base_weight_));
  TenantQueue& tq = tenants_[ti];
  Level& L = levels_[tq.level];
  if (tq.entities.empty()) L.tenants.push_back(ti);
  const std::size_t pos = tq.entities.size();
  tq.entities.push_back(entity);
  if (pos % 64 == 0) tq.armed.push_back(0);
  slots_[entity] = Slot{ti, static_cast<std::uint32_t>(pos)};
  ++entity_count_;
  arm(entity);
}

void WfqScheduler::remove(TenantId tenant, std::uint64_t entity) {
  auto it = tenant_index_.find(tenant.value());
  if (it == tenant_index_.end()) return;
  const std::uint32_t ti = it->second;
  if (entity >= slots_.size() || slots_[entity].tenant != ti) return;
  TenantQueue& tq = tenants_[ti];
  const std::size_t pos = slots_[entity].index;
  if (armed_at(tq, pos)) disarm(levels_[tq.level], tq, pos);
  // Close the gap: later entities (and their armed bits) shift down by one.
  for (std::size_t i = pos + 1; i < tq.entities.size(); ++i) {
    tq.entities[i - 1] = tq.entities[i];
    --slots_[tq.entities[i - 1]].index;
    std::uint64_t& word = tq.armed[(i - 1) >> 6];
    const std::uint64_t bit = std::uint64_t{1} << ((i - 1) & 63);
    word = armed_at(tq, i) ? (word | bit) : (word & ~bit);
  }
  tq.entities.pop_back();
  const std::size_t n = tq.entities.size();
  tq.armed[n >> 6] &= ~(std::uint64_t{1} << (n & 63));
  if (n % 64 == 0) tq.armed.pop_back();
  slots_[entity] = Slot{};
  tq.cursor = 0;
  --entity_count_;
  if (tq.entities.empty()) unlist(ti);
}

int WfqScheduler::level_of(TenantId tenant) const {
  auto it = tenant_index_.find(tenant.value());
  return it == tenant_index_.end() ? 0 : tenants_[it->second].level;
}

}  // namespace ufab::edge
