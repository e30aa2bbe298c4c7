#include "common/timer.h"

#include <gtest/gtest.h>

namespace spidermine {
namespace {

TEST(WallTimerTest, ElapsedIsNonNegativeAndMonotone) {
  WallTimer timer;
  double t1 = timer.ElapsedSeconds();
  double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

TEST(WallTimerTest, RestartResetsEpoch) {
  WallTimer timer;
  // Burn a little time.
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1e-3);
}

TEST(WallTimerTest, MillisMatchesSeconds) {
  WallTimer timer;
  double s = timer.ElapsedSeconds();
  double ms = timer.ElapsedMillis();
  EXPECT_GE(ms, s * 1e3 * 0.5);  // loose: separate clock reads
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline d = Deadline::Unlimited();
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 1e12);
}

TEST(DeadlineTest, TinyBudgetExpires) {
  Deadline d(1e-9);
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, GenerousBudgetDoesNotExpireImmediately) {
  Deadline d(3600.0);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 3500.0);
}

}  // namespace
}  // namespace spidermine
