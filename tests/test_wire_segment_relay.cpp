#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include <memory>

#include "src/net/tpwire_channel.hpp"
#include "src/sim/process.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/master.hpp"
#include "src/wire/relay.hpp"
#include "src/wire/segment.hpp"

namespace tb::wire {
namespace {

using namespace tb::sim::literals;

TEST(Segment, EncodeLayout) {
  RelaySegment segment{2, 5, {0xAA, 0xBB}};
  const auto raw = encode_segment(segment);
  ASSERT_EQ(raw.size(), segment_wire_size(2));
  EXPECT_EQ(raw[0], kSegmentMagic);
  EXPECT_EQ(raw[1], 2);     // src
  EXPECT_EQ(raw[2], 5);     // dst
  EXPECT_EQ(raw[3], 2);     // len lo
  EXPECT_EQ(raw[4], 0);     // len hi
  EXPECT_EQ(raw[5], 0xAA);
  EXPECT_EQ(raw[6], 0xBB);
}

TEST(Segment, RoundTripThroughParser) {
  RelaySegment segment{1, 3, {9, 8, 7, 6}};
  SegmentParser parser;
  parser.feed(encode_segment(segment));
  auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, segment);
  EXPECT_FALSE(parser.next().has_value());
}

TEST(Segment, EmptyPayloadAllowed) {
  RelaySegment segment{1, 2, {}};
  SegmentParser parser;
  parser.feed(encode_segment(segment));
  auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(Segment, ParserHandlesByteAtATimeDelivery) {
  RelaySegment segment{4, 2, {1, 2, 3}};
  SegmentParser parser;
  for (std::uint8_t b : encode_segment(segment)) {
    parser.feed_byte(b);
  }
  EXPECT_TRUE(parser.next().has_value());
}

TEST(Segment, BackToBackSegments) {
  SegmentParser parser;
  for (int i = 0; i < 5; ++i) {
    parser.feed(encode_segment(
        {1, 2, {static_cast<std::uint8_t>(i)}}));
  }
  for (int i = 0; i < 5; ++i) {
    auto s = parser.next();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->payload[0], i);
  }
}

TEST(Segment, CrcFailureCountsAndResyncs) {
  SegmentParser parser;
  auto bad = encode_segment({1, 2, {0x42}});
  bad.back() ^= 0xFF;  // wreck the CRC
  parser.feed(bad);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.crc_failures(), 1u);
  // A good segment afterwards still parses.
  parser.feed(encode_segment({1, 2, {0x43}}));
  auto good = parser.next();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->payload[0], 0x43);
}

TEST(Segment, LeadingGarbageIsSkipped) {
  SegmentParser parser;
  const std::uint8_t junk[] = {0x00, 0x11, 0x22};
  parser.feed(junk);
  parser.feed(encode_segment({3, 4, {0x55}}));
  auto s = parser.next();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->src, 3);
  EXPECT_EQ(parser.resync_bytes(), 3u);
}

TEST(Segment, RejectsOversizePayloadAtEncode) {
  RelaySegment segment;
  segment.payload.resize(kMaxSegmentPayload + 1);
  EXPECT_THROW(encode_segment(segment), util::PreconditionError);
}

// ---------------------------------------------------------------------------

struct RelayRig {
  sim::Simulator sim{1};
  LinkConfig link;
  OneWireBus bus;
  std::vector<std::unique_ptr<SlaveDevice>> slaves;
  Master master;
  MasterRelay relay;

  explicit RelayRig(int slave_count = 4, RelayConfig relay_config = {})
      : bus(sim, link),
        master(bus),
        relay(master, make_ids(slave_count), relay_config) {
    for (int i = 0; i < slave_count; ++i) {
      slaves.push_back(std::make_unique<SlaveDevice>(
          sim, static_cast<std::uint8_t>(i + 1), link));
      bus.attach(*slaves.back());
    }
  }

  static std::vector<std::uint8_t> make_ids(int n) {
    std::vector<std::uint8_t> ids;
    for (int i = 0; i < n; ++i) ids.push_back(static_cast<std::uint8_t>(i + 1));
    return ids;
  }
};

TEST(Relay, MovesSegmentBetweenSlaves) {
  RelayRig rig;
  RelaySegment segment{1, 3, {0xDE, 0xAD}};
  rig.slaves[0]->host_send(encode_segment(segment));
  rig.relay.start();
  rig.sim.run_until(5_s);

  SegmentParser parser;
  parser.feed(rig.slaves[2]->host_receive());
  auto delivered = parser.next();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(*delivered, segment);
  EXPECT_EQ(rig.relay.stats().segments_forwarded, 1u);
}

TEST(Relay, BroadcastReachesEveryoneExceptSource) {
  RelayRig rig;
  RelaySegment segment{2, kBroadcastNodeId, {0x77}};
  rig.slaves[1]->host_send(encode_segment(segment));
  rig.relay.start();
  rig.sim.run_until(5_s);

  for (int i = 0; i < 4; ++i) {
    SegmentParser parser;
    parser.feed(rig.slaves[i]->host_receive());
    const bool got = parser.next().has_value();
    EXPECT_EQ(got, i != 1) << "slave index " << i;
  }
}

TEST(Relay, UnknownDestinationDropped) {
  RelayRig rig;
  rig.slaves[0]->host_send(encode_segment({1, 99, {0x01}}));
  rig.relay.start();
  rig.sim.run_until(5_s);
  EXPECT_EQ(rig.relay.stats().segments_dropped, 1u);
  EXPECT_EQ(rig.relay.stats().segments_forwarded, 0u);
}

TEST(Relay, BidirectionalTrafficBothDelivered) {
  RelayRig rig;
  rig.slaves[0]->host_send(encode_segment({1, 2, {0x11}}));
  rig.slaves[1]->host_send(encode_segment({2, 1, {0x22}}));
  rig.relay.start();
  rig.sim.run_until(10_s);

  SegmentParser p1, p2;
  p1.feed(rig.slaves[0]->host_receive());
  p2.feed(rig.slaves[1]->host_receive());
  auto to1 = p1.next();
  auto to2 = p2.next();
  ASSERT_TRUE(to1.has_value());
  ASSERT_TRUE(to2.has_value());
  EXPECT_EQ(to1->payload[0], 0x22);
  EXPECT_EQ(to2->payload[0], 0x11);
}

TEST(Relay, SegmentSpanningMultipleVisitsReassembles) {
  RelayConfig small_budget;
  small_budget.max_drain_per_visit = 4;  // smaller than the segment
  RelayRig rig(4, small_budget);
  RelaySegment segment{1, 2, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}};
  rig.slaves[0]->host_send(encode_segment(segment));
  rig.relay.start();
  rig.sim.run_until(20_s);

  SegmentParser parser;
  parser.feed(rig.slaves[1]->host_receive());
  auto delivered = parser.next();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->payload, segment.payload);
}

TEST(Relay, WireCbrToWireSinkEndToEnd) {
  RelayRig rig;
  net::CbrParams cbr;
  cbr.rate_bytes_per_sec = 100.0;
  cbr.packet_size = 8;  // >= 8: latency timestamps embedded
  net::WireCbrSource source(rig.sim, *rig.slaves[0], 4, cbr);
  net::WireSink sink(rig.sim, *rig.slaves[3]);
  rig.relay.start();
  source.start();
  rig.sim.run_until(10_s);

  EXPECT_GT(sink.segments_received(), 10u);
  EXPECT_EQ(sink.payload_bytes(), sink.segments_received() * 8);
  ASSERT_FALSE(sink.latency().empty());
  EXPECT_GT(sink.latency().mean(), 0.0);
}

TEST(Relay, IdleBusOnlyPolls) {
  RelayRig rig;
  rig.relay.start();
  rig.sim.run_until(2_s);
  EXPECT_EQ(rig.relay.stats().bytes_drained, 0u);
  EXPECT_GT(rig.relay.stats().probes, 0u);
  EXPECT_GT(rig.relay.stats().rounds, 1u);
}

}  // namespace
}  // namespace tb::wire
