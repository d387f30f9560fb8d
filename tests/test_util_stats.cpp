#include "src/util/stats.hpp"

#include <gtest/gtest.h>

#include "src/util/assert.hpp"

namespace tb::util {
namespace {

TEST(SampleSet, PercentilesExact) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(SampleSet, SingleElement) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(SampleSet, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW(s.percentile(50), PreconditionError);
  EXPECT_THROW(s.mean(), PreconditionError);
}

TEST(SampleSet, UnsortedInputHandled) {
  SampleSet s;
  s.add(9.0);
  s.add(1.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(2.0);  // adding after sort re-dirties
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

}  // namespace
}  // namespace tb::util
