// SloTracker: clean-window-only enforcement, O(1) cumulative summaries, and
// the pass/fail gates the soak exits on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/soak/slo.hpp"
#include "tests/temp_path.hpp"

namespace ufab::soak {
namespace {

using namespace ufab::time_literals;

TEST(SloTracker, CleanWindowsAccrueViolationSecondsDirtyDoNot) {
  SloTracker t(1_s, /*guarantee_bps=*/1e6, /*wc_reference_bps=*/1e7, "");
  // Clean window with two pairs under guarantee: 2 pair-seconds accrue.
  t.begin_window(TimeNs::zero(), /*clean=*/true, 0);
  t.close_window(/*delivered_bps=*/5e6, /*pairs_below=*/2, 0, 0, 0);
  EXPECT_DOUBLE_EQ(t.violation_seconds(), 2.0);
  // Dirty window: shortfalls are the fault's fault, nothing accrues.
  t.begin_window(1_s, /*clean=*/false, 1);
  t.close_window(0.0, /*pairs_below=*/4, 10, 10, 3);
  EXPECT_DOUBLE_EQ(t.violation_seconds(), 2.0);
  EXPECT_EQ(t.windows(), 2);
  EXPECT_EQ(t.clean_windows(), 1);
}

TEST(SloTracker, CleanFctStreamSeparatesFromAll) {
  SloTracker t(1_s, 1e6, 1e7, "");
  t.begin_window(TimeNs::zero(), true, 0);
  t.record_fct_us(100.0);
  t.record_fct_us(200.0);
  t.close_window(1e7, 0, 0, 0, 0);
  t.begin_window(1_s, false, 2);
  t.record_fct_us(9'000.0);
  t.close_window(1e6, 0, 0, 0, 0);
  EXPECT_EQ(t.all_fct_us().count(), 3u);
  EXPECT_EQ(t.clean_fct_us().count(), 2u);
  EXPECT_DOUBLE_EQ(t.clean_fct_us().max(), 200.0);
}

TEST(SloTracker, WorkConservationGapTracksCleanWindows) {
  SloTracker t(1_s, 1e6, 1e7, "");
  t.begin_window(TimeNs::zero(), true, 0);
  t.close_window(/*delivered_bps=*/5e6, 0, 0, 0, 0);  // gap 0.5
  t.begin_window(1_s, true, 0);
  t.close_window(1e7, 0, 0, 0, 0);  // gap 0.0
  EXPECT_DOUBLE_EQ(t.clean_wc_gap().mean(), 0.25);
  // Over-delivery clamps at zero rather than going negative.
  t.begin_window(2_s, true, 0);
  t.close_window(2e7, 0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(t.clean_wc_gap().min(), 0.0);
}

TEST(SloTracker, CheckPassesCleanRunAndFlagsBreaches) {
  SloTracker good(1_s, 1e6, 1e7, "");
  good.begin_window(TimeNs::zero(), true, 0);
  good.record_fct_us(500.0);
  good.close_window(1e7, 0, 0, 0, 0);
  std::vector<std::string> out;
  EXPECT_TRUE(good.check(SloThresholds{}, &out));
  EXPECT_TRUE(out.empty());

  SloTracker bad(1_s, 1e6, 1e7, "");
  bad.begin_window(TimeNs::zero(), true, 0);
  bad.record_fct_us(2'000'000.0);  // 2 s FCT >> 400 ms gate
  bad.close_window(/*delivered_bps=*/1e6, /*pairs_below=*/3, 0, 0, 0);
  SloThresholds tight;
  tight.violation_seconds_per_hour = 0.5;
  EXPECT_FALSE(bad.check(tight, &out));
  EXPECT_FALSE(out.empty());
}

TEST(SloTracker, RecoveryGateUsesP99) {
  SloTracker t(1_s, 1e6, 1e7, "");
  t.begin_window(TimeNs::zero(), true, 0);
  for (int i = 0; i < 50; ++i) t.record_recovery_rtts(4.0);
  t.close_window(1e7, 0, 0, 0, 0);
  std::vector<std::string> out;
  SloThresholds gate;
  gate.recovery_p99_rtts = 8.0;
  EXPECT_TRUE(t.check(gate, &out)) << (out.empty() ? "" : out.front());
  t.begin_window(1_s, true, 0);
  for (int i = 0; i < 200; ++i) t.record_recovery_rtts(100.0);
  t.close_window(1e7, 0, 0, 0, 0);
  EXPECT_FALSE(t.check(gate, &out));
}

TEST(SloTracker, CsvHasHeaderAndOneRowPerWindow) {
  const std::string path = temp_path("slo_tracker_test.csv");
  {
    SloTracker t(500_ms, 1e6, 1e7, path);
    for (int w = 0; w < 3; ++w) {
      t.begin_window(TimeNs{w * 500'000'000LL}, w % 2 == 0, w % 2);
      t.record_fct_us(100.0 * (w + 1));
      t.close_window(1e7, 0, w, 0, 0);
    }
    t.finish();
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(f, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header + 3 windows
  EXPECT_NE(lines[0].find("window,start_s,clean"), std::string::npos);
  EXPECT_NE(lines[0].find("fct_p99_us"), std::string::npos);
  EXPECT_EQ(lines[1].substr(0, 2), "0,");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ufab::soak
