#include "src/telemetry/bloom.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/core/assert.hpp"

namespace ufab::telemetry {

namespace {
constexpr std::uint32_t kCounterMax = 15;  // 4-bit saturating counters
constexpr std::size_t kMinTable = 16;

std::uint64_t mix(std::uint64_t x, std::uint64_t salt) {
  x ^= salt;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Home slot of `cell` in a table of mask + 1 slots (Fibonacci hashing).
std::size_t home(std::uint32_t cell, std::size_t mask) {
  return static_cast<std::size_t>((cell * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
}
}  // namespace

CountingBloomFilter::CountingBloomFilter(BloomConfig cfg) : cfg_(cfg) {
  UFAB_CHECK(cfg_.counters > 0 && cfg_.hashes > 0);
  UFAB_CHECK(cfg_.counters <= std::numeric_limits<std::uint32_t>::max());
}

std::size_t CountingBloomFilter::slot(std::uint64_t key, int i) const {
  // Each "hash function" indexes its own bank, mirroring the two parallel
  // memory banks on the switch.
  const std::size_t bank_size = cfg_.counters / static_cast<std::size_t>(cfg_.hashes);
  const std::size_t bank_base = static_cast<std::size_t>(i) * bank_size;
  return bank_base + mix(key, 0xabcdef12u + static_cast<std::uint64_t>(i) * 0x9e37ULL) % bank_size;
}

std::size_t CountingBloomFilter::find(std::uint32_t cell) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t pos = home(cell, mask);
  while (table_[pos].count != 0 && table_[pos].index != cell) pos = (pos + 1) & mask;
  return pos;
}

void CountingBloomFilter::grow() {
  const std::vector<Cell> old =
      std::exchange(table_, std::vector<Cell>(std::max(kMinTable, table_.size() * 2)));
  for (const Cell& c : old) {
    if (c.count != 0) table_[find(c.index)] = c;
  }
}

void CountingBloomFilter::increment(std::uint32_t cell) {
  if ((live_ + 1) * 2 > table_.size()) grow();
  Cell& c = table_[find(cell)];
  if (c.count == 0) {
    c.index = cell;
    ++live_;
  }
  if (c.count < kCounterMax) ++c.count;
}

void CountingBloomFilter::decrement(std::uint32_t cell) {
  if (table_.empty()) return;
  std::size_t hole = find(cell);
  Cell& c = table_[hole];
  // Absent (zero) counters stay zero; saturated counters are sticky.
  if (c.count == 0 || c.count == kCounterMax || --c.count > 0) return;
  // Backward-shift deletion: pull each later entry of the probe run into the
  // hole unless that would put it before its home slot.
  const std::size_t mask = table_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; table_[j].count != 0; j = (j + 1) & mask) {
    if (((j - home(table_[j].index, mask)) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = Cell{};
  --live_;
}

void CountingBloomFilter::insert(std::uint64_t key) {
  for (int i = 0; i < cfg_.hashes; ++i) increment(static_cast<std::uint32_t>(slot(key, i)));
  ++inserted_;
}

void CountingBloomFilter::remove(std::uint64_t key) {
  for (int i = 0; i < cfg_.hashes; ++i) decrement(static_cast<std::uint32_t>(slot(key, i)));
  if (inserted_ > 0) --inserted_;
}

bool CountingBloomFilter::maybe_contains(std::uint64_t key) const {
  if (live_ == 0) return false;
  for (int i = 0; i < cfg_.hashes; ++i) {
    if (table_[find(static_cast<std::uint32_t>(slot(key, i)))].count == 0) return false;
  }
  return true;
}

double CountingBloomFilter::false_positive_rate() const {
  // Standard approximation with per-bank occupancy: p = (1 - e^{-n/m'})^k
  // where m' is the bank size and n the inserted keys.
  const double bank =
      static_cast<double>(cfg_.counters) / static_cast<double>(cfg_.hashes);
  const double n = static_cast<double>(inserted_);
  const double p_one = 1.0 - std::exp(-n / bank);
  return std::pow(p_one, cfg_.hashes);
}

void CountingBloomFilter::clear() {
  table_ = {};
  live_ = 0;
  inserted_ = 0;
}

}  // namespace ufab::telemetry
