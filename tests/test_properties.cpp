// Property-based tests: invariants checked over exhaustive or randomized
// input sweeps rather than hand-picked cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "naive_space.hpp"
#include "src/cosim/rsp.hpp"
#include "src/mw/codec.hpp"
#include "src/mw/framing.hpp"
#include "src/sim/process.hpp"
#include "src/space/engine.hpp"
#include "src/util/hex.hpp"
#include "src/util/rng.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/master.hpp"
#include "src/wire/segment.hpp"
#include "src/wire/timing.hpp"

namespace tb {
namespace {

// ---------------------------------------------------------------------------
// Frame codec: exhaustive over the whole 16-bit word space.

TEST(FrameProperty, DecodeEncodeIsIdentityOnAllValidWords) {
  int valid_tx = 0, valid_rx = 0;
  for (std::uint32_t w = 0; w <= 0xFFFF; ++w) {
    const auto word = static_cast<std::uint16_t>(w);
    if (auto tx = wire::TxFrame::decode(word)) {
      EXPECT_EQ(tx->encode(), word);
      ++valid_tx;
    }
    if (auto rx = wire::RxFrame::decode(word)) {
      EXPECT_EQ(rx->encode(), word);
      ++valid_rx;
    }
  }
  // TX: exactly one valid word per (cmd, data) pair — 8 commands × 256 data
  // values = 2048. RX: the INT bit is excluded from the CRC, so both INT
  // settings of every (type, data) pair decode — 2 × 4 types × 256 = 2048.
  // Both counts are exact: anything else means the CRC accepts or rejects
  // words it should not.
  ASSERT_EQ(valid_tx, 8 * 256);
  ASSERT_EQ(valid_rx, 2 * 4 * 256);
}

// ---------------------------------------------------------------------------
// Event bus vs closed form, across randomized link configurations.

class BusTimingProperty : public ::testing::TestWithParam<int> {};

TEST_P(BusTimingProperty, SimMatchesAnalyticForRandomConfigs) {
  util::Xoshiro256 rng(GetParam());
  wire::LinkConfig link;
  link.bit_rate_hz = static_cast<std::uint32_t>(rng.uniform(600, 2'000'000));
  link.wires = static_cast<int>(rng.uniform(1, 4));
  link.hop_delay_bits = static_cast<double>(rng.uniform(0, 8));
  link.response_delay_bits = static_cast<double>(rng.uniform(1, 64));
  link.interframe_gap_bits = static_cast<double>(rng.uniform(0, 32));
  const int slaves = static_cast<int>(rng.uniform(1, 8));
  const int target = static_cast<int>(rng.uniform(0, slaves - 1));
  // Keep the response inside the timeout window for this property.
  link.rx_timeout_bits = 2.0 * slaves * link.hop_delay_bits +
                         link.response_delay_bits + 2 * wire::kFrameBits + 32;

  sim::Simulator sim(GetParam());
  wire::OneWireBus bus(sim, link);
  std::vector<std::unique_ptr<wire::SlaveDevice>> devices;
  for (int i = 0; i < slaves; ++i) {
    devices.push_back(std::make_unique<wire::SlaveDevice>(
        sim, static_cast<std::uint8_t>(i + 1), link));
    bus.attach(*devices.back());
  }
  wire::Master master(bus);

  constexpr int kFrames = 25;
  bool all_ok = true;
  sim::spawn([&]() -> sim::Task<void> {
    for (int i = 0; i < kFrames; ++i) {
      wire::PingResult r =
          co_await master.ping(static_cast<std::uint8_t>(target + 1));
      all_ok = all_ok && r.ok();
    }
  });
  sim.run();
  ASSERT_TRUE(all_ok);

  const wire::AnalyticTiming analytic(link);
  // Rounding of fractional bit periods to integer nanoseconds can differ by
  // a few ns per cycle between the two models.
  const double expected = analytic.frames(kFrames, target).seconds();
  EXPECT_NEAR(sim.now().seconds(), expected, expected * 1e-6 + 1e-6)
      << "rate=" << link.bit_rate_hz << " slaves=" << slaves
      << " target=" << target;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusTimingProperty, ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Segment parser: any chunking of the byte stream reassembles identically.

class SegmentChunkingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SegmentChunkingProperty, ArbitrarySplitsReassemble) {
  util::Xoshiro256 rng(GetParam() * 7919);
  std::vector<wire::RelaySegment> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 20; ++i) {
    wire::RelaySegment segment;
    segment.src = static_cast<std::uint8_t>(rng.uniform(0, 126));
    segment.dst = static_cast<std::uint8_t>(rng.uniform(0, 127));
    segment.payload.resize(rng.uniform(0, 100));
    for (auto& b : segment.payload) {
      b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    const auto encoded = wire::encode_segment(segment);
    stream.insert(stream.end(), encoded.begin(), encoded.end());
    sent.push_back(std::move(segment));
  }

  wire::SegmentParser parser;
  std::size_t offset = 0;
  while (offset < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(rng.uniform(1, 17), stream.size() - offset);
    parser.feed({stream.data() + offset, chunk});
    offset += chunk;
  }

  for (const wire::RelaySegment& expected : sent) {
    auto got = parser.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.crc_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentChunkingProperty,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Message codecs: random valid messages round-trip; random corruption never
// crashes (either decodes to something or reports failure).

space::Value random_value(util::Xoshiro256& rng) {
  switch (rng.uniform(0, 4)) {
    case 0: return space::Value(static_cast<std::int64_t>(rng.next_u64()));
    case 1: return space::Value(rng.next_double() * 1e6 - 5e5);
    case 2: return space::Value(rng.bernoulli(0.5));
    case 3: {
      // Bias towards the XML metacharacters so escaping gets exercised on
      // every run, not just when uniform ASCII happens to land on one.
      static constexpr char kSpecial[] = "<>&\"'";
      std::string s;
      const auto n = rng.uniform(0, 20);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (rng.bernoulli(0.25)) {
          s.push_back(kSpecial[rng.uniform(0, 4)]);
        } else {
          s.push_back(static_cast<char>(rng.uniform(32, 126)));
        }
      }
      return space::Value(std::move(s));
    }
    default: {
      // Empty, small, and large (multi-KB) blobs: the large ones cross the
      // codecs' reserve hints and the framer's length-prefix fast paths.
      const std::uint64_t size =
          rng.bernoulli(0.2) ? 0
          : rng.bernoulli(0.15) ? rng.uniform(1'024, 4'096)
                                : rng.uniform(1, 32);
      std::vector<std::uint8_t> bytes(size);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      return space::Value(std::move(bytes));
    }
  }
}

mw::Message random_message(util::Xoshiro256& rng) {
  mw::Message m;
  m.type = static_cast<mw::MsgType>(
      rng.uniform(0, static_cast<int>(mw::MsgType::kError)));
  m.request_id = rng.uniform(0, 1'000'000);
  m.created_at_ns = static_cast<std::int64_t>(rng.uniform(0, 1'000'000'000));
  m.duration_ns = static_cast<std::int64_t>(rng.uniform(0, 1'000'000'000));
  m.handle = rng.uniform(0, 100'000);
  m.txn = rng.uniform(0, 100'000);
  m.ok = rng.bernoulli(0.5);
  if (rng.bernoulli(0.5)) {
    space::Tuple tuple;
    tuple.name = "n" + std::to_string(rng.uniform(0, 9));
    const auto fields = rng.uniform(0, 5);
    for (std::uint64_t i = 0; i < fields; ++i) {
      tuple.fields.push_back(random_value(rng));
    }
    m.tuple = std::move(tuple);
  }
  if (rng.bernoulli(0.5)) {
    space::Template tmpl;
    if (rng.bernoulli(0.5)) tmpl.name = "t" + std::to_string(rng.uniform(0, 9));
    const auto fields = rng.uniform(0, 4);
    for (std::uint64_t i = 0; i < fields; ++i) {
      switch (rng.uniform(0, 2)) {
        case 0:
          tmpl.fields.push_back(space::FieldPattern::exact(random_value(rng)));
          break;
        case 1:
          tmpl.fields.push_back(space::FieldPattern::typed(
              static_cast<space::ValueType>(rng.uniform(0, 4))));
          break;
        default:
          tmpl.fields.push_back(space::FieldPattern::any());
      }
    }
    m.tmpl = std::move(tmpl);
  }
  return m;
}

class CodecProperty : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<mw::Codec> make_codec() const {
    if (std::string(GetParam()) == "xml") return std::make_unique<mw::XmlCodec>();
    return std::make_unique<mw::BinaryCodec>();
  }
};

TEST_P(CodecProperty, RandomMessagesRoundTrip) {
  auto codec = make_codec();
  util::Xoshiro256 rng(42);
  for (int i = 0; i < 200; ++i) {
    const mw::Message original = random_message(rng);
    auto decoded = codec->decode(codec->encode(original));
    ASSERT_TRUE(decoded.has_value()) << original.to_string();
    EXPECT_EQ(*decoded, original) << original.to_string();
  }
}

TEST_P(CodecProperty, RandomCorruptionNeverCrashes) {
  auto codec = make_codec();
  util::Xoshiro256 rng(43);
  for (int i = 0; i < 200; ++i) {
    auto bytes = codec->encode(random_message(rng));
    switch (rng.uniform(0, 2)) {
      case 0:  // truncate
        bytes.resize(rng.uniform(0, bytes.size()));
        break;
      case 1:  // flip a byte
        if (!bytes.empty()) {
          bytes[rng.uniform(0, bytes.size() - 1)] ^=
              static_cast<std::uint8_t>(rng.uniform(1, 255));
        }
        break;
      default:  // append junk
        bytes.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
    }
    // Must not throw; may decode (if still well-formed) or fail cleanly.
    (void)codec->decode(bytes);
  }
}

TEST_P(CodecProperty, EncodeIntoAppendsAndReusedBufferMatchesFresh) {
  // The zero-copy contract: encode_into appends (never truncates the
  // caller's prefix), and a buffer reused across messages — the transport
  // steady state — produces bytes identical to a fresh encode.
  auto codec = make_codec();
  util::Xoshiro256 rng(44);
  std::vector<std::uint8_t> reused;
  for (int i = 0; i < 100; ++i) {
    const mw::Message original = random_message(rng);
    const std::vector<std::uint8_t> fresh = codec->encode(original);

    std::vector<std::uint8_t> prefixed = {0xDE, 0xAD};
    codec->encode_into(original, prefixed);
    ASSERT_GE(prefixed.size(), 2u);
    EXPECT_EQ(prefixed[0], 0xDE);
    EXPECT_EQ(prefixed[1], 0xAD);
    EXPECT_EQ(std::vector<std::uint8_t>(prefixed.begin() + 2, prefixed.end()),
              fresh);

    reused.clear();
    codec->encode_into(original, reused);
    EXPECT_EQ(reused, fresh);
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecProperty,
                         ::testing::Values("xml", "binary"));

// Each codec's output is its wire format, so it is pinned byte for byte to
// fixtures in tests/golden/: a "## <name>" line, then the message's exact
// encoding on one line (XML as text, binary as hex). Together the messages
// below set every field the codecs emit: tuple values of every type (XML
// metacharacters, empty and non-empty blobs), named and nameless templates
// with exact, typed and any patterns, a federation frame, duration, handle,
// expires, txn, status, epoch and error.
std::vector<std::pair<std::string, mw::Message>> golden_messages() {
  using mw::MsgType;
  using space::FieldPattern;
  using space::Tuple;
  using space::Value;
  using space::ValueType;
  using Bytes = std::vector<std::uint8_t>;
  constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();
  std::vector<std::pair<std::string, mw::Message>> out;
  // The returned reference is valid until the next add() reallocates, so
  // each message is filled in before the next one is added.
  auto add = [&](const char* name, MsgType type, std::uint64_t id,
                 std::int64_t at) -> mw::Message& {
    mw::Message m;
    m.type = type;
    m.request_id = id;
    m.created_at_ns = at;
    return out.emplace_back(name, std::move(m)).second;
  };

  auto& write = add("write_request", MsgType::kWriteRequest, 7, 1500);
  write.tuple = Tuple("sensor", {Value(42), Value(1.5), Value(true)});
  write.tuple->fields.emplace_back(std::string("a<b & \"c\" 'd'>"));
  write.tuple->fields.emplace_back(Bytes{0x00, 0xAB, 0xFF});
  write.tuple->fields.emplace_back(Bytes{});
  write.duration_ns = 60'000'000'000;

  auto& take = add("take_request", MsgType::kTakeRequest, 8, -3);
  take.tmpl = space::Template("job", {});
  take.tmpl->fields.push_back(FieldPattern::exact(Value(-5)));
  take.tmpl->fields.push_back(FieldPattern::typed(ValueType::kString));
  take.tmpl->fields.push_back(FieldPattern::any());
  take.tmpl->fields.push_back(FieldPattern::exact(Value(Bytes{1, 2})));
  take.duration_ns = kForever;
  take.txn = 12;

  auto& read = add("read_wildcard", MsgType::kReadRequest, 9, 0);
  read.tmpl = space::Template(std::nullopt, {});
  read.tmpl->fields.push_back(FieldPattern::typed(ValueType::kFloat));
  read.tmpl->fields.push_back(FieldPattern::typed(ValueType::kBool));
  read.tmpl->fields.push_back(FieldPattern::exact(Value("&")));

  auto& renew = add("renew_response", MsgType::kRenewResponse, 11, 2200);
  renew.handle = 99;
  renew.expires_at_ns = 123'456'789;
  renew.ok = true;

  auto& commit = add("txn_commit", MsgType::kTxnCommitRequest, 12, 2300);
  commit.txn = 31;

  auto& reject = add("misroute_reject", MsgType::kError, 13, 2400);
  reject.status = 9;
  reject.epoch = 4;
  reject.error = "stale table: epoch 3 < 4 & \"retry\"";

  auto& peek = add("peek_response", MsgType::kPeekResponse, 14, 2500);
  peek.tuple = Tuple("job", {Value(-1), Value(0.25)});
  peek.handle = 1'000'000'007;
  peek.ok = true;

  auto& miss = add("match_miss", MsgType::kMatchResponse, 15, 2600);
  miss.tuple = Tuple("empty", {});
  return out;
}

/// name -> bytes from a golden file (format above).
std::map<std::string, std::string> read_golden(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, std::string> golden;
  std::string line, name;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      name = line.substr(3);
    } else if (!name.empty()) {
      golden[name] = line;
      name.clear();
    }
  }
  return golden;
}

/// Checks every golden message's encoding, written as one line by
/// `as_line`, against the golden file `path`, and that it decodes back.
void expect_golden_bytes(
    const mw::Codec& codec, const std::string& path,
    std::string (*as_line)(std::span<const std::uint8_t>)) {
  const auto golden = read_golden(path);
  const auto messages = golden_messages();
  ASSERT_EQ(golden.size(), messages.size());
  for (const auto& [name, message] : messages) {
    SCOPED_TRACE(name);
    const auto expected = golden.find(name);
    ASSERT_NE(expected, golden.end());
    const std::vector<std::uint8_t> bytes = codec.encode(message);
    EXPECT_EQ(as_line(bytes), expected->second);
    const auto decoded = codec.decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, message);
  }
}

std::string as_text(std::span<const std::uint8_t> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

TEST(CodecProperty, XmlWriterMatchesGoldenBytes) {
  expect_golden_bytes(mw::XmlCodec(), TB_TEST_GOLDEN_DIR "/xml_codec.txt",
                      as_text);
}

TEST(CodecProperty, BinaryMatchesGoldenBytes) {
  expect_golden_bytes(mw::BinaryCodec(),
                      TB_TEST_GOLDEN_DIR "/binary_codec.txt", util::to_hex);
}

// ---------------------------------------------------------------------------
// Framer: random chunk boundaries never change the reassembled messages.

TEST(FramerProperty, RandomChunking) {
  util::Xoshiro256 rng(7);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<std::uint8_t>> messages;
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < 10; ++i) {
      std::vector<std::uint8_t> m(rng.uniform(0, 200));
      for (auto& b : m) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      auto framed = mw::MessageFramer::frame(m);
      stream.insert(stream.end(), framed.begin(), framed.end());
      messages.push_back(std::move(m));
    }
    mw::MessageFramer framer;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.uniform(1, 33), stream.size() - offset);
      framer.feed({stream.data() + offset, chunk});
      offset += chunk;
    }
    for (const auto& expected : messages) {
      auto got = framer.next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(std::vector<std::uint8_t>(got->begin(), got->end()), expected);
    }
    EXPECT_FALSE(framer.next().has_value());
  }
}

// ---------------------------------------------------------------------------
// RSP: random payloads with junk and acks interleaved between packets.

TEST(RspProperty, RandomPayloadsWithInterPacketNoise) {
  util::Xoshiro256 rng(11);
  cosim::RspParser parser;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> payload(rng.uniform(0, 64));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    if (rng.bernoulli(0.3)) parser.feed_byte('+');
    parser.feed(cosim::rsp_encode(payload));
    auto decoded = parser.next();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, payload);
  }
  EXPECT_EQ(parser.checksum_errors(), 0u);
}

// ---------------------------------------------------------------------------
// Tuplespace: the indexed engine, the unindexed (linear-scan, sharded)
// engine and the naive reference model behave identically under a random
// operation sequence with finite leases racing matches, renewals and
// cancels (a small model-equivalence check).

class SpaceEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpaceEquivalenceProperty, EnginesAgreeWithNaiveModelOnRandomOps) {
  util::Xoshiro256 rng(GetParam() * 104'729);
  sim::Simulator sim_indexed(1), sim_linear(1), sim_naive(1);
  space::SpaceEngine indexed(sim_indexed);
  space::SpaceEngine linear(
      sim_linear,
      space::SpaceConfig{.use_type_index = false, .shard_count = 4});
  space::NaiveSpace naive(sim_naive);

  auto random_tuple = [&] {
    return space::make_tuple(
        "k" + std::to_string(rng.uniform(0, 3)),
        static_cast<std::int64_t>(rng.uniform(0, 5)));
  };
  auto random_template = [&]() -> space::Template {
    space::Template tmpl;
    if (rng.bernoulli(0.8)) tmpl.name = "k" + std::to_string(rng.uniform(0, 3));
    if (rng.bernoulli(0.5)) {
      tmpl.fields.push_back(space::FieldPattern::exact(
          space::Value(static_cast<std::int64_t>(rng.uniform(0, 5)))));
    } else {
      tmpl.fields.push_back(space::FieldPattern::any());
    }
    return tmpl;
  };
  std::vector<std::uint64_t> ids;  // same on all three: ids follow op order

  for (int op = 0; op < 500; ++op) {
    switch (rng.uniform(0, 6)) {
      case 0:
      case 1: {
        const space::Tuple t = random_tuple();
        // Lease in whole ms against 1 ms steps: some deadlines land exactly
        // on an operation's instant.
        const sim::Time lease = rng.bernoulli(0.5)
                                    ? space::kLeaseForever
                                    : sim::Time::ms(rng.uniform(1, 6));
        const std::uint64_t id = indexed.write(t, lease).id;
        EXPECT_EQ(linear.write(t, lease).id, id);
        EXPECT_EQ(naive.write(t, lease).id, id);
        ids.push_back(id);
        break;
      }
      case 2: {
        const space::Template tmpl = random_template();
        const auto got = indexed.take_if_exists(tmpl);
        EXPECT_EQ(linear.take_if_exists(tmpl), got);
        EXPECT_EQ(naive.take_if_exists(tmpl), got);
        break;
      }
      case 3: {
        const space::Template tmpl = random_template();
        const auto got = indexed.read_if_exists(tmpl);
        EXPECT_EQ(linear.read_if_exists(tmpl), got);
        EXPECT_EQ(naive.read_if_exists(tmpl), got);
        break;
      }
      case 4: {
        const space::Template tmpl = random_template();
        const std::size_t max = rng.uniform(0, 3);
        const bool take = rng.bernoulli(0.5);
        const auto got =
            take ? indexed.take_all(tmpl, max) : indexed.read_all(tmpl, max);
        EXPECT_EQ(
            take ? linear.take_all(tmpl, max) : linear.read_all(tmpl, max),
            got);
        EXPECT_EQ(take ? naive.take_all(tmpl, max) : naive.read_all(tmpl, max),
                  got);
        break;
      }
      case 5: {
        if (ids.empty()) break;
        const std::uint64_t id = ids[rng.uniform(0, ids.size() - 1)];
        if (rng.bernoulli(0.5)) {
          const sim::Time extension = sim::Time::ms(rng.uniform(1, 6));
          const bool renewed = indexed.renew(id, extension).has_value();
          EXPECT_EQ(linear.renew(id, extension).has_value(), renewed);
          EXPECT_EQ(naive.renew(id, extension).has_value(), renewed);
        } else {
          const bool cancelled = indexed.cancel(id);
          EXPECT_EQ(linear.cancel(id), cancelled);
          EXPECT_EQ(naive.cancel(id), cancelled);
        }
        break;
      }
      default: {
        const sim::Time until = sim_indexed.now() + sim::Time::ms(1);
        sim_indexed.run_until(until);
        sim_linear.run_until(until);
        sim_naive.run_until(until);
      }
    }
    const auto state = indexed.snapshot();
    ASSERT_EQ(linear.snapshot(), state) << "op " << op;
    ASSERT_EQ(naive.snapshot(), state) << "op " << op;
  }

  const space::SpaceEngine::Stats a = indexed.stats();
  for (const space::SpaceEngine::Stats& b : {linear.stats(), naive.stats()}) {
    EXPECT_EQ(b.writes, a.writes);
    EXPECT_EQ(b.reads, a.reads);
    EXPECT_EQ(b.takes, a.takes);
    EXPECT_EQ(b.misses, a.misses);
    EXPECT_EQ(b.expirations, a.expirations);
    EXPECT_EQ(b.renewals, a.renewals);
    EXPECT_EQ(b.cancellations, a.cancellations);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpaceEquivalenceProperty,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Master under random fault rates: block writes either fail cleanly or
// leave the slave's memory exactly right (never torn).

class FaultSweepProperty : public ::testing::TestWithParam<int> {};

TEST_P(FaultSweepProperty, BlockWritesAreNeverTorn) {
  util::Xoshiro256 rng(GetParam() * 31);
  wire::FaultConfig faults;
  faults.tx_corrupt_prob = rng.next_double() * 0.2;
  faults.rx_corrupt_prob = rng.next_double() * 0.2;

  sim::Simulator sim(GetParam());
  wire::LinkConfig link;
  wire::OneWireBus bus(sim, link, faults);
  wire::SlaveDevice slave(sim, 1, link);
  bus.attach(slave);
  wire::Master master(bus);

  std::vector<std::uint8_t> payload(16);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(rng.uniform(0, 255));
  }

  wire::WireStatus status = wire::WireStatus::kTimeout;
  sim::spawn([&]() -> sim::Task<void> {
    status = co_await master.write_memory(1, 0x40, payload);
  });
  sim.run();

  if (status == wire::WireStatus::kOk) {
    for (std::size_t i = 0; i < payload.size(); ++i) {
      EXPECT_EQ(slave.memory_at(static_cast<std::uint16_t>(0x40 + i)),
                payload[i]);
    }
  }
  // Even on failure, bytes before the failure point must be intact and in
  // order — verify the written prefix matches.
  std::size_t prefix = 0;
  while (prefix < payload.size() &&
         slave.memory_at(static_cast<std::uint16_t>(0x40 + prefix)) ==
             payload[prefix]) {
    ++prefix;
  }
  for (std::size_t i = prefix; i < payload.size(); ++i) {
    EXPECT_EQ(slave.memory_at(static_cast<std::uint16_t>(0x40 + i)), 0)
        << "hole or stray write at offset " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSweepProperty, ::testing::Range(1, 16));

}  // namespace
}  // namespace tb
