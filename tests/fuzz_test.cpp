// Randomized property tests over the whole sketch pipeline:
//   * random well-typed expression -> print -> parse -> print is a fixpoint;
//   * the reparsed tree evaluates identically;
//   * the Z3 encoding agrees with the interpreter at random points;
//   * random garbage never crashes the lexer/parser (it throws ParseError).
#include <gtest/gtest.h>

#include <z3++.h>

#include <cmath>
#include <string>

#include "sketch/eval.h"
#include "sketch/parser.h"
#include "sketch/printer.h"
#include "sketch/typecheck.h"
#include "solver/z3_encoder.h"
#include "util/rng.h"

namespace compsynth::sketch {
namespace {

// Random well-typed numeric/boolean expression generator. Division is only
// generated with a nonzero constant divisor so evaluation is total.
class ExprGen {
 public:
  ExprGen(util::Rng& rng, std::size_t metrics, std::size_t holes)
      : rng_(rng), metrics_(metrics), holes_(holes) {}

  ExprPtr numeric(int depth) {
    if (depth <= 0) return leaf();
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1:
        return leaf();
      case 2:
        return neg(numeric(depth - 1));
      case 3:
        return add(numeric(depth - 1), numeric(depth - 1));
      case 4:
        return sub(numeric(depth - 1), numeric(depth - 1));
      case 5:
        return mul(numeric(depth - 1), numeric(depth - 1));
      case 6:
        return binary(rng_.bernoulli(0.5) ? BinOp::kMin : BinOp::kMax,
                      numeric(depth - 1), numeric(depth - 1));
      case 7:
        return binary(BinOp::kDiv, numeric(depth - 1), nonzero_constant());
      case 8:
        return ite(boolean(depth - 1), numeric(depth - 1), numeric(depth - 1));
      default: {
        // A choice node selected by hole 0 (declared as grid(0,1,3)).
        if (holes_ == 0) return leaf();
        std::vector<ExprPtr> alts{numeric(depth - 1), numeric(depth - 1),
                                  numeric(depth - 1)};
        return choice(0, std::move(alts));
      }
    }
  }

  ExprPtr boolean(int depth) {
    if (depth <= 0) {
      return compare(random_cmp(), leaf(), leaf());
    }
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return compare(random_cmp(), numeric(depth - 1), numeric(depth - 1));
      case 1:
        return bool_binary(rng_.bernoulli(0.5) ? BoolOp::kAnd : BoolOp::kOr,
                           boolean(depth - 1), boolean(depth - 1));
      case 2:
        return logical_not(boolean(depth - 1));
      default:
        return bool_constant(rng_.bernoulli(0.5));
    }
  }

 private:
  ExprPtr leaf() {
    const auto kind = rng_.uniform_int(0, 2);
    if (kind == 0 && metrics_ > 0) return metric(rng_.index(metrics_));
    if (kind == 1 && holes_ > 0) return hole(rng_.index(holes_));
    // Quarter-grid constants keep printing/parsing exact.
    return constant(static_cast<double>(rng_.uniform_int(-20, 20)) / 4.0);
  }

  ExprPtr nonzero_constant() {
    const double v = static_cast<double>(rng_.uniform_int(1, 16)) / 4.0;
    return constant(rng_.bernoulli(0.5) ? v : -v);
  }

  CmpOp random_cmp() {
    switch (rng_.uniform_int(0, 5)) {
      case 0: return CmpOp::kLt;
      case 1: return CmpOp::kLe;
      case 2: return CmpOp::kGt;
      case 3: return CmpOp::kGe;
      case 4: return CmpOp::kEq;
      default: return CmpOp::kNe;
    }
  }

  util::Rng& rng_;
  std::size_t metrics_;
  std::size_t holes_;
};

Sketch random_sketch(util::Rng& rng) {
  std::vector<MetricSpec> metrics;
  const auto n_metrics = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t i = 0; i < n_metrics; ++i) {
    std::string name = std::to_string(i);
    name.insert(name.begin(), 'm');
    metrics.push_back(MetricSpec{std::move(name), -10, 10});
  }
  std::vector<HoleSpec> holes;
  holes.push_back(HoleSpec{"sel", 0, 1, 3});  // choice selector
  holes.push_back(HoleSpec{"w", 0, 0.5, 9});
  ExprGen gen(rng, n_metrics, holes.size());
  return Sketch("fuzz", std::move(metrics), std::move(holes),
                gen.numeric(/*depth=*/4));
}

class SketchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SketchFuzz, PrintParseFixpointAndSemanticEquality) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const Sketch original = random_sketch(rng);

  const std::string once = print_sketch(original);
  const Sketch reparsed = parse_sketch(once);
  EXPECT_EQ(print_sketch(reparsed), once) << once;

  // Semantic equality at random points/assignments.
  for (int probe = 0; probe < 25; ++probe) {
    HoleAssignment a;
    for (const auto& h : original.holes()) {
      a.index.push_back(rng.uniform_int(0, h.count - 1));
    }
    std::vector<double> point;
    for (const auto& m : original.metrics()) {
      point.push_back(rng.uniform_real(m.lo, m.hi));
    }
    const double v1 = eval(original, a, point);
    const double v2 = eval(reparsed, a, point);
    if (std::isnan(v1)) {
      EXPECT_TRUE(std::isnan(v2));
    } else {
      EXPECT_DOUBLE_EQ(v1, v2) << once;
    }
  }
}

TEST_P(SketchFuzz, Z3EncodingMatchesInterpreter) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  const Sketch sk = random_sketch(rng);

  HoleAssignment a;
  for (const auto& h : sk.holes()) a.index.push_back(rng.uniform_int(0, h.count - 1));
  std::vector<double> point;
  for (const auto& m : sk.metrics()) point.push_back(rng.uniform_real(m.lo, m.hi));

  const double expected = eval(sk, a, point);
  if (!std::isfinite(expected)) return;  // overflow from deep products: skip

  z3::context ctx;
  std::vector<z3::expr> hole_exprs;
  for (const double v : sk.hole_values(a)) {
    hole_exprs.push_back(solver::real_of_double(ctx, v));
  }
  const auto metric_exprs = solver::encode_scenario(ctx, point);
  z3::solver s(ctx);
  const z3::expr out = ctx.real_const("out");
  s.add(out == solver::encode_numeric(ctx, *sk.body(), metric_exprs, hole_exprs));
  ASSERT_EQ(s.check(), z3::sat);
  const double got = solver::value_of(s.get_model(), out);
  EXPECT_NEAR(got, expected, 1e-6 * std::max(1.0, std::abs(expected)))
      << print_sketch(sk);
}

INSTANTIATE_TEST_SUITE_P(Random, SketchFuzz, ::testing::Range(0, 40));

// --- Parser robustness: random garbage throws, never crashes ----------------

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, GarbageInputsThrowCleanly) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 1);
  static const char* kFragments[] = {
      "sketch", "hole", "grid", "if", "then", "else", "choose", "min", "max",
      "in", "(", ")", "{", "}", "[", "]", ",", ";", "+", "-", "*", "/", "&&",
      "||", "!", "<", "<=", ">=", "==", "!=", "x", "y", "foo", "0", "1", "2.5",
      "1e9", "true", "false", "#comment\n",
  };
  for (int round = 0; round < 20; ++round) {
    std::string input;
    const int len = static_cast<int>(rng.uniform_int(1, 40));
    for (int i = 0; i < len; ++i) {
      input += kFragments[rng.index(std::size(kFragments))];
      input += ' ';
    }
    try {
      const Sketch s = parse_sketch(input);
      // Extremely unlikely, but a valid sketch is also acceptable.
      EXPECT_FALSE(s.name().empty());
    } catch (const ParseError&) {
    } catch (const TypeError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(ParserFuzz, RandomBytesThrowCleanly) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 997 + 5);
  std::string input;
  const int len = static_cast<int>(rng.uniform_int(1, 200));
  for (int i = 0; i < len; ++i) {
    input += static_cast<char>(rng.uniform_int(1, 127));
  }
  try {
    parse_sketch(input);
  } catch (const ParseError&) {
  } catch (const TypeError&) {
  } catch (const std::invalid_argument&) {
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ParserFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace compsynth::sketch
