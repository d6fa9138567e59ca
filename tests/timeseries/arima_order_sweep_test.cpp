// Property sweep: for every ARIMA order in a grid, fitting a series
// simulated from that exact order must (a) succeed, (b) produce one-step
// predictions that beat the naive mean/last-value baseline, and (c) keep
// forecasts finite and bounded. This guards the estimator across the whole
// order surface, not just the cases the paper's pipeline happens to use.
#include <cmath>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "timeseries/arima.h"

namespace ddos::ts {
namespace {

struct OrderCase {
  ArimaOrder order;
  double phi1 = 0.0;
  double phi2 = 0.0;
  double theta1 = 0.0;
};

// gtest prints a parameter without a PrintTo as a byte dump that includes
// struct padding; the printed value becomes part of the registered CTest
// name, so print the content instead to keep the names stable. The orders
// are already in the test name's suffix.
void PrintTo(const OrderCase& c, std::ostream* os) {
  *os << "ar=" << c.phi1 << "," << c.phi2 << " ma=" << c.theta1;
}

std::vector<double> Simulate(const OrderCase& c, int n, std::uint64_t seed) {
  Rng rng(seed);
  // Simulate the stationary ARMA core, then integrate d times.
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  double prev_e = 0.0;
  for (std::size_t t = 0; t < x.size(); ++t) {
    const double e = rng.Normal(0.0, 1.0);
    double v = 10.0 + e + c.theta1 * prev_e;
    if (t >= 1) v += c.phi1 * (x[t - 1] - 10.0);
    if (t >= 2) v += c.phi2 * (x[t - 2] - 10.0);
    x[t] = v;
    prev_e = e;
  }
  for (int k = 0; k < c.order.d; ++k) {
    double acc = 0.0;
    for (double& v : x) {
      acc += v;
      v = acc;
    }
  }
  return x;
}

class ArimaOrderSweep : public ::testing::TestWithParam<OrderCase> {};

TEST_P(ArimaOrderSweep, FitsAndPredictsBetterThanBaseline) {
  const OrderCase& c = GetParam();
  const auto series = Simulate(c, 4000, 17 + static_cast<std::uint64_t>(
                                                c.order.p + 7 * c.order.q +
                                                31 * c.order.d));
  const std::span<const double> train(series.data(), 2000);
  const std::span<const double> test(series.data() + 2000, 2000);

  const ArimaModel model = ArimaModel::Fit(train, c.order);
  const std::vector<double> predictions = model.PredictOneStep(test);
  ASSERT_EQ(predictions.size(), test.size());

  double model_sse = 0.0, last_value_sse = 0.0;
  double prev = train.back();
  for (std::size_t i = 0; i < test.size(); ++i) {
    ASSERT_TRUE(std::isfinite(predictions[i])) << i;
    model_sse += (predictions[i] - test[i]) * (predictions[i] - test[i]);
    last_value_sse += (prev - test[i]) * (prev - test[i]);
    prev = test[i];
  }
  // The true-order model is at least competitive with the last-value
  // baseline (and clearly better whenever there is AR/MA structure).
  EXPECT_LT(model_sse, 1.1 * last_value_sse) << "order (" << c.order.p << ","
                                             << c.order.d << "," << c.order.q
                                             << ")";

  // Forecasts stay finite over a long horizon.
  for (const double f : model.Forecast(100)) {
    EXPECT_TRUE(std::isfinite(f));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ArimaOrderSweep,
    ::testing::Values(
        OrderCase{{0, 0, 0}, 0, 0, 0}, OrderCase{{1, 0, 0}, 0.6, 0, 0},
        OrderCase{{2, 0, 0}, 0.5, 0.3, 0}, OrderCase{{0, 0, 1}, 0, 0, 0.5},
        OrderCase{{1, 0, 1}, 0.6, 0, 0.3}, OrderCase{{2, 0, 1}, 0.4, 0.2, 0.3},
        OrderCase{{0, 1, 0}, 0, 0, 0}, OrderCase{{1, 1, 0}, 0.5, 0, 0},
        OrderCase{{0, 1, 1}, 0, 0, 0.4}, OrderCase{{1, 1, 1}, 0.4, 0, 0.3},
        OrderCase{{2, 2, 0}, 0.3, 0.2, 0}),
    [](const ::testing::TestParamInfo<OrderCase>& info) {
      return "p" + std::to_string(info.param.order.p) + "d" +
             std::to_string(info.param.order.d) + "q" +
             std::to_string(info.param.order.q);
    });

}  // namespace
}  // namespace ddos::ts
