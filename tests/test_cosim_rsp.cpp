#include "src/cosim/rsp.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/cosim/rsp_pipe.hpp"
#include "src/mw/client.hpp"
#include "src/mw/node_core.hpp"
#include "src/sim/process.hpp"
#include "src/space/engine.hpp"

namespace tb::cosim {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Rsp, EncodeSimplePacket) {
  // "$OK#9a" — checksum of "OK" = 0x4F + 0x4B = 0x9A.
  const auto encoded = rsp_encode(bytes_of("OK"));
  EXPECT_EQ(std::string(encoded.begin(), encoded.end()), "$OK#9a");
}

TEST(Rsp, EncodeEmptyPacket) {
  const auto encoded = rsp_encode({});
  EXPECT_EQ(std::string(encoded.begin(), encoded.end()), "$#00");
}

TEST(Rsp, RoundTripPlainPayload) {
  RspParser parser;
  const auto payload = bytes_of("qSupported:multiprocess+");
  parser.feed(rsp_encode(payload));
  auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
  EXPECT_EQ(parser.take_acks(), bytes_of("+"));
}

TEST(Rsp, EscapesSpecialBytes) {
  const std::vector<std::uint8_t> payload = {'$', '#', '}', 'x'};
  const auto encoded = rsp_encode(payload);
  // Each special byte costs 2 wire bytes.
  EXPECT_EQ(encoded.size(), 1 + 7 + 3);
  RspParser parser;
  parser.feed(encoded);
  auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Rsp, AllByteValuesRoundTrip) {
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<std::uint8_t>(i));
  RspParser parser;
  parser.feed(rsp_encode(payload));
  auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Rsp, ChecksumErrorNaks) {
  auto encoded = rsp_encode(bytes_of("data"));
  encoded[2] ^= 0x01;  // corrupt payload, checksum now wrong
  RspParser parser;
  parser.feed(encoded);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.checksum_errors(), 1u);
  EXPECT_EQ(parser.take_acks(), bytes_of("-"));
}

TEST(Rsp, BadChecksumDigitsNak) {
  auto encoded = rsp_encode(bytes_of("x"));
  encoded[encoded.size() - 1] = 'z';
  RspParser parser;
  parser.feed(encoded);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.checksum_errors(), 1u);
}

TEST(Rsp, BackToBackPackets) {
  RspParser parser;
  std::vector<std::uint8_t> stream;
  for (const char* s : {"one", "two", "three"}) {
    auto p = rsp_encode(bytes_of(s));
    stream.insert(stream.end(), p.begin(), p.end());
    stream.push_back('+');  // interleaved acks are tolerated
  }
  parser.feed(stream);
  EXPECT_EQ(*parser.next(), bytes_of("one"));
  EXPECT_EQ(*parser.next(), bytes_of("two"));
  EXPECT_EQ(*parser.next(), bytes_of("three"));
  EXPECT_EQ(parser.junk_bytes(), 0u);
}

TEST(Rsp, JunkBetweenPacketsCounted) {
  RspParser parser;
  parser.feed(bytes_of("zz"));
  parser.feed(rsp_encode(bytes_of("ok")));
  EXPECT_TRUE(parser.next().has_value());
  EXPECT_EQ(parser.junk_bytes(), 2u);
}

TEST(Rsp, RestartMidPacketRecovers) {
  RspParser parser;
  // A '$' inside an (unescaped, malformed) stream restarts packet capture.
  parser.feed(bytes_of("$abc"));
  parser.feed(rsp_encode(bytes_of("good")));
  auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bytes_of("good"));
}

TEST(Rsp, WireSizeAccountsForEscapesAndAck) {
  EXPECT_EQ(rsp_wire_size(bytes_of("ab")), 2u + 4u + 1u);
  const std::vector<std::uint8_t> special = {'$'};
  EXPECT_EQ(rsp_wire_size(special), 2u + 4u + 1u);
}

TEST(RspPipe, CarriesSpaceOperations) {
  using namespace tb::sim::literals;
  sim::Simulator sim(1);
  space::SpaceEngine space(sim);
  mw::XmlCodec codec;
  RspPipe pipe(sim);
  mw::NodeCore server(space, pipe.server_end(), codec);
  mw::SpaceClient client(sim, pipe.client_end(), codec);

  bool done = false;
  sim::spawn([&]() -> sim::Task<void> {
    auto wr = co_await client.write(space::make_tuple("t", 1),
                                    space::kLeaseForever);
    EXPECT_TRUE(wr.ok);
    space::Template tmpl(std::string("t"), {space::FieldPattern::any()});
    auto taken = co_await client.take(std::move(tmpl), 10_s);
    EXPECT_TRUE(taken.has_value());
    done = true;
  });
  sim.run_until(60_s);
  EXPECT_TRUE(done);
  // Serial pipe time is real: a couple of hundred bytes at 11.5 kB/s plus
  // latency lands in the tens of milliseconds.
  EXPECT_GT(sim.now(), 10_ms);
  EXPECT_GT(pipe.stats().wire_bytes, pipe.stats().payload_bytes);
  EXPECT_GT(pipe.expansion(), 1.0);
}

TEST(RspPipe, SerializesOnTheLine) {
  using namespace tb::sim::literals;
  sim::Simulator sim(1);
  RspPipeParams params;
  params.bytes_per_sec = 1'000.0;
  params.latency = sim::Time::zero();
  RspPipe pipe(sim, params);
  std::vector<sim::Time> arrivals;
  pipe.server_end().on_message().connect(
      [&](mw::ServerTransport::SessionId, std::span<const std::uint8_t>) {
        arrivals.push_back(sim.now());
      });
  // Two back-to-back 95-byte messages: ~100 wire bytes each at 1000 B/s.
  pipe.client_end().send(std::vector<std::uint8_t>(95, 'x'));
  pipe.client_end().send(std::vector<std::uint8_t>(95, 'y'));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0].seconds(), 0.100, 0.001);
  EXPECT_NEAR(arrivals[1].seconds(), 0.200, 0.001);  // queued behind the first
}

TEST(RspPipe, RejectsNonZeroSession) {
  sim::Simulator sim(1);
  RspPipe pipe(sim);
  EXPECT_THROW(pipe.server_end().send(1, {0x00}), util::PreconditionError);
}

}  // namespace
}  // namespace tb::cosim
