// The host-speed reference: a fixed computation, timed beside every workload
// run, that shows how fast this host runs at that moment.
//
//   vfbench_ref      prints {"ref_s": <seconds>, "checksum": <n>}
//
// It mimics a discrete-event engine's inner loop: pop the earliest timestamp
// from a binary heap, read and update a random slot of a 32 MB table, do a
// short chain of dependent multiplies, push a later timestamp.  That mix of
// cache-resident queue work, shared-cache reads and core arithmetic slows
// down like the simulator does when the machine's other tenants are busy.
// It uses nothing from the library, so a change to the program never changes
// the reference.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

int main() {
  constexpr std::size_t kTableSlots = std::size_t{1} << 22;  // 32 MB of uint64
  constexpr std::size_t kHeapSize = std::size_t{1} << 16;
  constexpr int kEvents = 1'000'000;
  constexpr int kChain = 16;

  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> table(kTableSlots);
  for (std::uint64_t& v : table) v = next();
  std::vector<std::uint64_t> heap(kHeapSize);
  for (std::uint64_t& t : heap) t = next() >> 40;
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});

  std::uint64_t checksum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const std::uint64_t t = heap.back();
    const std::uint64_t r = next();
    std::uint64_t& slot = table[(r ^ t) & (kTableSlots - 1)];
    std::uint64_t v = slot;
    for (int j = 0; j < kChain; ++j) v = v * 0x2545F4914F6CDD1Dull + static_cast<std::uint64_t>(j);
    slot = v;
    checksum += v;
    heap.back() = t + (r >> 44) + 1;
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  const double ref_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("{\"ref_s\": %.9f, \"checksum\": %llu}\n", ref_s,
              static_cast<unsigned long long>(checksum));
  return 0;
}
