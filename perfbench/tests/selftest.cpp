// Self-tests of the benchmark harness: the decorators change nothing the
// program reports, span accounting yields self time, and tail percentiles
// need ten samples beyond them.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "core/framework.hpp"
#include "probe.hpp"
#include "quantiles.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace {

fifer::ExperimentParams short_run(const fifer::RmConfig& rm) {
  fifer::ExperimentParams p;
  p.rm = rm;
  p.trace = fifer::poisson_trace(120.0, 30.0);
  p.seed = 7;
  p.input_scale_jitter = 0.15;
  p.train.epochs = 3;
  return p;
}

std::string report_with(fifer::ExperimentParams p, std::shared_ptr<perfbench::Probe> probe) {
  if (probe) p.policy_factory = perfbench::probed_factory(probe);
  return perfbench::report_text(fifer::FiferFramework(std::move(p)).run());
}

TEST(Decorators, LeaveEveryPresetByteIdentical) {
  for (const char* name : {"bline", "sbatch", "rscale", "bpred", "fifer", "hpa"}) {
    SCOPED_TRACE(name);
    const fifer::ExperimentParams p = short_run(fifer::RmConfig::by_name(name));
    const std::string plain = report_with(p, nullptr);
    auto untraced = std::make_shared<perfbench::Probe>(false);
    auto traced = std::make_shared<perfbench::Probe>(true);
    EXPECT_EQ(plain, report_with(p, untraced));
    EXPECT_EQ(plain, report_with(p, traced));
    // The traced run really went through the decorators.
    EXPECT_TRUE(traced->stats.started);
    EXPECT_GT(traced->stats.select.calls, 0u);
    EXPECT_GT(traced->stats.key.calls, 0u);
    EXPECT_GT(traced->stats.arrival.calls + traced->stats.tick.calls, 0u);
    EXPECT_GT(traced->stats.spawn.calls, 0u);
    EXPECT_EQ(untraced->stats.select.calls, 0u);
  }
}

double g_fake_now = 0.0;
double fake_now() { return g_fake_now; }

TEST(SpanStack, SelfTimeIsSpanMinusChildSpans) {
  perfbench::SpanStack spans(&fake_now);
  g_fake_now = 10.0;
  spans.begin();  // parent [10, 20]
  g_fake_now = 11.0;
  spans.begin();  // child [11, 13]
  g_fake_now = 13.0;
  const auto child = spans.end();
  g_fake_now = 14.0;
  spans.begin();  // child [14, 18] with a grandchild [15, 16]
  g_fake_now = 15.0;
  spans.begin();
  g_fake_now = 16.0;
  const auto grandchild = spans.end();
  g_fake_now = 18.0;
  const auto child2 = spans.end();
  g_fake_now = 20.0;
  const auto parent = spans.end();

  EXPECT_DOUBLE_EQ(child.total_s, 2.0);
  EXPECT_DOUBLE_EQ(child.self_s, 2.0);
  EXPECT_DOUBLE_EQ(grandchild.self_s, 1.0);
  EXPECT_DOUBLE_EQ(child2.total_s, 4.0);
  EXPECT_DOUBLE_EQ(child2.self_s, 3.0);
  EXPECT_DOUBLE_EQ(parent.total_s, 10.0);
  EXPECT_DOUBLE_EQ(parent.self_s, 10.0 - 2.0 - 4.0);
  EXPECT_DOUBLE_EQ(spans.top_level_s(), 10.0);

  g_fake_now = 30.0;
  spans.begin();
  g_fake_now = 31.5;
  spans.end();
  EXPECT_DOUBLE_EQ(spans.top_level_s(), 11.5);
}

TEST(TailQuantile, NeedsTenSamplesBeyond) {
  std::vector<double> v(999);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_FALSE(perfbench::tail_quantile(v, 0.99).has_value());
  EXPECT_TRUE(perfbench::tail_quantile(v, 0.95).has_value());
  v.push_back(1000.0);
  ASSERT_TRUE(perfbench::tail_quantile(v, 0.99).has_value());
  EXPECT_NEAR(*perfbench::tail_quantile(v, 0.99), 990.01, 1e-9);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(perfbench::tail_quantile(small, 0.5).has_value());
  small.push_back(3.0);
  ASSERT_TRUE(perfbench::tail_quantile(small, 0.5).has_value());
  EXPECT_DOUBLE_EQ(*perfbench::tail_quantile(small, 0.5), 1.0);
}

TEST(Median, OfRepeatedMeasurements) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(perfbench::median({5.0, 1.0}), 3.0);
  EXPECT_DOUBLE_EQ(perfbench::median({9.0, 1.0, 4.0}), 4.0);
}

}  // namespace
