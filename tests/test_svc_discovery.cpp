#include "src/svc/discovery.hpp"

#include <gtest/gtest.h>

#include "co_gtest.hpp"

#include <algorithm>

#include "src/sim/process.hpp"

namespace tb::svc {
namespace {

using namespace tb::sim::literals;

class DiscoveryTest : public ::testing::Test {
 protected:
  DiscoveryTest() : space_(sim_), api_(space_), discovery_(api_) {}

  template <typename Fn>
  void drive(Fn&& body) {
    bool done = false;
    sim::spawn([&]() -> sim::Task<void> {
      co_await body();
      done = true;
    });
    sim_.run();
    ASSERT_TRUE(done);
  }

  sim::Simulator sim_{1};
  space::SpaceEngine space_;
  LocalSpaceApi api_;
  Discovery discovery_;
};

TEST_F(DiscoveryTest, AnnounceThenLocate) {
  drive([&]() -> sim::Task<void> {
    ServiceRecord record{"fft", "node-3", 3, 1};
    EXPECT_TRUE(co_await discovery_.announce(record));
    auto found = co_await discovery_.locate("fft", 1_s);
    CO_ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, record);
  });
}

TEST_F(DiscoveryTest, LocateUnknownTimesOut) {
  drive([&]() -> sim::Task<void> {
    auto found = co_await discovery_.locate("nonexistent", 100_ms);
    EXPECT_FALSE(found.has_value());
    EXPECT_EQ(sim_.now(), 100_ms);
  });
}

TEST_F(DiscoveryTest, LocateBlocksUntilProviderAppears) {
  std::optional<ServiceRecord> found;
  sim::spawn([&]() -> sim::Task<void> {
    found = co_await discovery_.locate("late", 10_s);
  });
  sim::spawn([&]() -> sim::Task<void> {
    co_await sim::delay(sim_, 2_s);
    ServiceRecord rec1_{"late", "p1", 7, 1};
    co_await discovery_.announce(rec1_);
  });
  sim_.run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->provider, "p1");
}

TEST_F(DiscoveryTest, LocateAllReturnsEveryProviderAndRestoresSpace) {
  drive([&]() -> sim::Task<void> {
    ServiceRecord rec2_{"fft", "a", 1, 1};
    co_await discovery_.announce(rec2_);
    ServiceRecord rec3_{"fft", "b", 2, 1};
    co_await discovery_.announce(rec3_);
    ServiceRecord rec4_{"other", "c", 3, 1};
    co_await discovery_.announce(rec4_);

    auto all = co_await discovery_.locate_all("fft");
    CO_ASSERT_EQ(all.size(), 2u);
    auto has = [&](const std::string& provider) {
      return std::any_of(all.begin(), all.end(), [&](const ServiceRecord& r) {
        return r.provider == provider;
      });
    };
    EXPECT_TRUE(has("a"));
    EXPECT_TRUE(has("b"));

    // The scan must put the records back.
    auto again = co_await discovery_.locate_all("fft");
    EXPECT_EQ(again.size(), 2u);
  });
}

TEST_F(DiscoveryTest, ReannounceReplacesRecord) {
  drive([&]() -> sim::Task<void> {
    ServiceRecord rec5_{"fft", "a", 1, 1};
    co_await discovery_.announce(rec5_);
    ServiceRecord rec6_{"fft", "a", 1, 2};
    co_await discovery_.announce(rec6_);  // version bump
    auto all = co_await discovery_.locate_all("fft");
    CO_ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].version, 2);
  });
}

TEST_F(DiscoveryTest, WithdrawRemoves) {
  drive([&]() -> sim::Task<void> {
    ServiceRecord rec7_{"fft", "a", 1, 1};
    co_await discovery_.announce(rec7_);
    EXPECT_TRUE(co_await discovery_.withdraw("fft", "a"));
    EXPECT_FALSE(co_await discovery_.withdraw("fft", "a"));
    auto found = co_await discovery_.locate("fft", sim::Time::zero());
    EXPECT_FALSE(found.has_value());
  });
}

TEST_F(DiscoveryTest, LeaseBoundedAnnouncementEvaporates) {
  drive([&]() -> sim::Task<void> {
    ServiceRecord rec8_{"fft", "a", 1, 1};
    co_await discovery_.announce(rec8_, 500_ms);
    co_await sim::delay(sim_, 1_s);
    auto found = co_await discovery_.locate("fft", sim::Time::zero());
    EXPECT_FALSE(found.has_value());
  });
}

TEST_F(DiscoveryTest, TupleConversionRejectsForeignTuples) {
  EXPECT_FALSE(
      Discovery::from_tuple(space::make_tuple("unrelated", space::Value(1)))
          .has_value());
  EXPECT_FALSE(Discovery::from_tuple(
                   space::make_tuple("svc-registry", space::Value(1)))
                   .has_value());
  // Wrong field type in slot 0.
  EXPECT_FALSE(Discovery::from_tuple(space::Tuple(
                   "svc-registry", {space::Value(1), space::Value("p"),
                                    space::Value(1), space::Value(1)}))
                   .has_value());
}

TEST_F(DiscoveryTest, RoundTripThroughTuple) {
  const ServiceRecord record{"motion", "ctrl-1", 12, 3};
  auto decoded = Discovery::from_tuple(Discovery::to_tuple(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, record);
}

}  // namespace
}  // namespace tb::svc
