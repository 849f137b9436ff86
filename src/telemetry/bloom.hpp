// Counting Bloom filter used by uFAB-C to recognise active VM-pairs.
//
// The paper's switch uses a 2-way-hashed 20 KB Bloom filter supporting ~20K
// distinct VM-pairs at <5% false positives (§4.2).  We implement a counting
// variant (4-bit saturating counters) so that explicit finish probes can
// remove entries, which the plain bit-vector form cannot.
//
// The modelled filter has cfg.counters cells, but a port in the repo's runs
// holds at most a few thousand non-zero ones, so only those are stored: an
// open-addressed table keyed by cell index (linear probing, backward-shift
// deletion, grown at half load).  A cell's count, and so every answer and
// the false-positive behaviour, is exactly the dense array's; memory is
// O(non-zero cells) instead of one byte per configured cell.
#pragma once

#include <cstdint>
#include <vector>

namespace ufab::telemetry {

struct BloomConfig {
  /// Number of cells. The paper's 20 KB filter uses 1-bit cells => 163,840
  /// cells across 2 banks, which yields <5% false positives at 20K pairs.
  /// We keep the same cell count for false-positive fidelity; the counting
  /// variant costs 4 bits/cell (80 KB SRAM), accounted in the resource model.
  std::size_t counters = 163'840;
  /// Hash functions (the paper's switch uses 2 memory banks in parallel).
  int hashes = 2;
};

class CountingBloomFilter {
 public:
  explicit CountingBloomFilter(BloomConfig cfg = {});

  void insert(std::uint64_t key);

  /// Decrements counters for `key`; safe to call only for inserted keys
  /// (callers track membership out-of-band, as uFAB-E does on the edge).
  void remove(std::uint64_t key);

  /// True if `key` might be present (false positives possible, no false
  /// negatives while inserted).
  [[nodiscard]] bool maybe_contains(std::uint64_t key) const;

  [[nodiscard]] std::size_t inserted_count() const { return inserted_; }
  /// Configured cells (the modelled SRAM), not the non-zero ones stored.
  [[nodiscard]] std::size_t counter_count() const { return cfg_.counters; }

  /// Analytic false-positive probability at the current fill level.
  [[nodiscard]] double false_positive_rate() const;

  void clear();

 private:
  /// A non-zero counter: its cell index and count.  count == 0 marks an
  /// empty table slot.
  struct Cell {
    std::uint32_t index;
    std::uint32_t count;
  };

  [[nodiscard]] std::size_t slot(std::uint64_t key, int i) const;
  /// Table position of `cell`'s entry, or of the empty slot that ends its
  /// probe run.  Requires a non-empty table.
  [[nodiscard]] std::size_t find(std::uint32_t cell) const;
  void increment(std::uint32_t cell);
  void decrement(std::uint32_t cell);
  void grow();

  BloomConfig cfg_;
  std::vector<Cell> table_;  ///< Power-of-two size, at most half full.
  std::size_t live_ = 0;     ///< Non-zero counters in table_.
  std::size_t inserted_ = 0;
};

}  // namespace ufab::telemetry
