#include "src/space/tuple.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace tb::space {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value(5).type(), ValueType::kInt);
  EXPECT_EQ(Value(std::int64_t{5}).as_int(), 5);
  EXPECT_EQ(Value(1.5).type(), ValueType::kFloat);
  EXPECT_DOUBLE_EQ(Value(1.5).as_float(), 1.5);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value("hi").type(), ValueType::kString);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_EQ(Value(std::vector<std::uint8_t>{1, 2}).type(), ValueType::kBytes);
}

TEST(Value, CharPointerIsStringNotBool) {
  // The classic const char* -> bool trap must not fire.
  Value v("text");
  EXPECT_EQ(v.type(), ValueType::kString);
}

TEST(Value, EqualityIsTypeAndValue) {
  EXPECT_EQ(Value(5), Value(5));
  EXPECT_NE(Value(5), Value(5.0));  // int != float
  EXPECT_NE(Value(0), Value(false));
  EXPECT_EQ(Value("a"), Value(std::string("a")));
}

TEST(Value, FloatEqualityIsIeee) {
  EXPECT_EQ(Value(-0.0), Value(0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(Value(nan), Value(nan));
  EXPECT_NE(Value(1.0), Value(true));
}

TEST(Value, WrongTypeAccessThrows) {
  EXPECT_THROW(Value(1).as_float(), std::bad_variant_access);
  EXPECT_THROW(Value(1.0).as_int(), std::bad_variant_access);
  EXPECT_THROW(Value(true).as_int(), std::bad_variant_access);
  EXPECT_THROW(Value(0).as_bool(), std::bad_variant_access);
  EXPECT_THROW(Value(1).as_string(), std::bad_variant_access);
  EXPECT_THROW(Value("s").as_bytes(), std::bad_variant_access);
  EXPECT_THROW(Value(std::vector<std::uint8_t>{1}).as_string(),
               std::bad_variant_access);
}

// One value of each type, with boxed payloads long enough to live on the
// heap, so a shallow copy would show up as a double free under ASan.
std::vector<Value> one_of_each() {
  return {Value(-7), Value(2.5), Value(true),
          Value(std::string(40, 's')),
          Value(std::vector<std::uint8_t>(40, 0xB7))};
}

TEST(Value, CopyAndAssignAcrossAllTypes) {
  const std::vector<Value> values = one_of_each();
  for (const Value& from : values) {
    const Value copied(from);
    EXPECT_EQ(copied, from);
    for (const Value& to : values) {
      Value assigned(to);
      assigned = from;
      EXPECT_EQ(assigned, from) << to.to_string() << " <- " << from.to_string();
      EXPECT_EQ(assigned.type(), from.type());

      Value target(to);
      Value source(from);
      target = std::move(source);
      EXPECT_EQ(target, from);
      EXPECT_EQ(source, Value(0));  // NOLINT(bugprone-use-after-move)
    }
  }
  // A copy owns its own box.
  Value a(std::string(40, 'a'));
  const Value b(a);
  a = Value(std::string(40, 'z'));
  EXPECT_EQ(b.as_string(), std::string(40, 'a'));
}

TEST(Value, MovedFromIsIntZero) {
  for (Value& v : one_of_each()) {
    const Value taken(std::move(v));
    EXPECT_TRUE(v.is(ValueType::kInt));  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(v.as_int(), 0);
    v = Value("reused");  // the moved-from value is fully usable
    EXPECT_EQ(v.as_string(), "reused");
  }
}

TEST(Value, SelfAssignKeepsTheValue) {
  for (Value& v : one_of_each()) {
    const Value expected(v);
    Value& alias = v;
    v = alias;
    EXPECT_EQ(v, expected);
    v = std::move(alias);
    EXPECT_EQ(v, expected);
  }
}

TEST(Value, SameTypeCopyAssignReusesTheBox) {
  // Request cells are recycled and overwritten by copy-assign: a string
  // (or byte vector) assigned over a string keeps its heap buffer.
  Value dst(std::string(64, 'x'));
  const char* buffer = dst.as_string().data();
  const Value shorter(std::string(40, 'z'));
  dst = shorter;
  EXPECT_EQ(dst.as_string().data(), buffer);
  EXPECT_EQ(dst, shorter);

  Value bytes(std::vector<std::uint8_t>(64, 1));
  const std::uint8_t* block = bytes.as_bytes().data();
  const Value fewer(std::vector<std::uint8_t>(40, 2));
  bytes = fewer;
  EXPECT_EQ(bytes.as_bytes().data(), block);
  EXPECT_EQ(bytes, fewer);
}

TEST(Value, ToStringRenders) {
  EXPECT_EQ(Value(5).to_string(), "5");
  EXPECT_EQ(Value(true).to_string(), "true");
  EXPECT_EQ(Value("x").to_string(), "\"x\"");
  EXPECT_EQ(Value(std::vector<std::uint8_t>{0xAB}).to_string(), "0xab");
}

TEST(Tuple, ArityAndByteSize) {
  Tuple t("sensor", {Value(1), Value("on")});
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(t.byte_size(), 6u + 8u + 2u);  // "sensor" + int + "on"
}

TEST(FieldPattern, ExactMatchesOnlyEqualValue) {
  const FieldPattern p = FieldPattern::exact(Value(42));
  EXPECT_TRUE(p.matches(Value(42)));
  EXPECT_FALSE(p.matches(Value(43)));
  EXPECT_FALSE(p.matches(Value(42.0)));
  EXPECT_FALSE(p.matches(Value("42")));
}

TEST(FieldPattern, TypedMatchesAnyValueOfType) {
  const FieldPattern p = FieldPattern::typed(ValueType::kString);
  EXPECT_TRUE(p.matches(Value("a")));
  EXPECT_TRUE(p.matches(Value("")));
  EXPECT_FALSE(p.matches(Value(1)));
}

TEST(FieldPattern, AnyMatchesEverything) {
  const FieldPattern p = FieldPattern::any();
  EXPECT_TRUE(p.matches(Value(1)));
  EXPECT_TRUE(p.matches(Value("x")));
  EXPECT_TRUE(p.matches(Value(false)));
}

TEST(FieldPattern, ImplicitValueConversion) {
  FieldPattern p = Value(7);
  EXPECT_TRUE(p.is_exact());
  EXPECT_TRUE(p.matches(Value(7)));
}

TEST(Template, NameConstrainedMatching) {
  Template tmpl(std::string("sensor"), {FieldPattern::any()});
  EXPECT_TRUE(tmpl.matches(Tuple("sensor", {Value(1)})));
  EXPECT_FALSE(tmpl.matches(Tuple("actuator", {Value(1)})));
}

TEST(Template, WildcardNameMatchesAnyTupleName) {
  Template tmpl(std::nullopt, {FieldPattern::any()});
  EXPECT_TRUE(tmpl.matches(Tuple("a", {Value(1)})));
  EXPECT_TRUE(tmpl.matches(Tuple("b", {Value("x")})));
}

TEST(Template, ArityMustMatchExactly) {
  Template tmpl(std::nullopt, {FieldPattern::any(), FieldPattern::any()});
  EXPECT_FALSE(tmpl.matches(Tuple("t", {Value(1)})));
  EXPECT_TRUE(tmpl.matches(Tuple("t", {Value(1), Value(2)})));
  EXPECT_FALSE(tmpl.matches(Tuple("t", {Value(1), Value(2), Value(3)})));
}

TEST(Template, MixedPatterns) {
  Template tmpl(std::string("job"),
                {FieldPattern::exact(Value(5)),
                 FieldPattern::typed(ValueType::kString),
                 FieldPattern::any()});
  EXPECT_TRUE(tmpl.matches(Tuple("job", {Value(5), Value("fft"), Value(1.0)})));
  EXPECT_TRUE(tmpl.matches(Tuple("job", {Value(5), Value("x"), Value(true)})));
  EXPECT_FALSE(tmpl.matches(Tuple("job", {Value(6), Value("fft"), Value(1.0)})));
  EXPECT_FALSE(tmpl.matches(Tuple("job", {Value(5), Value(1), Value(1.0)})));
}

TEST(Template, EmptyTemplateMatchesEmptyTuple) {
  Template tmpl(std::nullopt, {});
  EXPECT_TRUE(tmpl.matches(Tuple("anything", {})));
  EXPECT_FALSE(tmpl.matches(Tuple("anything", {Value(1)})));
}

struct MatchCase {
  Tuple tuple;
  bool expected;
};

class TemplateMatrix : public ::testing::TestWithParam<MatchCase> {};

TEST_P(TemplateMatrix, AgainstFixedTemplate) {
  // Template: status(<any int>, "ok", *)
  Template tmpl(std::string("status"),
                {FieldPattern::typed(ValueType::kInt),
                 FieldPattern::exact(Value("ok")),
                 FieldPattern::any()});
  EXPECT_EQ(tmpl.matches(GetParam().tuple), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TemplateMatrix,
    ::testing::Values(
        MatchCase{Tuple("status", {Value(1), Value("ok"), Value(0)}), true},
        MatchCase{Tuple("status", {Value(99), Value("ok"), Value("z")}), true},
        MatchCase{Tuple("status", {Value(1.0), Value("ok"), Value(0)}), false},
        MatchCase{Tuple("status", {Value(1), Value("bad"), Value(0)}), false},
        MatchCase{Tuple("other", {Value(1), Value("ok"), Value(0)}), false},
        MatchCase{Tuple("status", {Value(1), Value("ok")}), false}));

TEST(Template, ToStringShowsPatterns) {
  Template tmpl(std::string("t"),
                {FieldPattern::exact(Value(1)),
                 FieldPattern::typed(ValueType::kBool), FieldPattern::any()});
  EXPECT_EQ(tmpl.to_string(), "t(1, ?bool, *)");
}

}  // namespace
}  // namespace tb::space
