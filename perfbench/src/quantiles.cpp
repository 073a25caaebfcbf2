#include "quantiles.hpp"

#include <cmath>

#include "common/stats.hpp"

namespace perfbench {

std::optional<double> tail_quantile(const std::vector<double>& samples, double q) {
  // The epsilon keeps 1000 * (1 - 0.99) from flooring to 9.
  const double beyond =
      std::floor(static_cast<double>(samples.size()) * (1.0 - q) + 1e-9);
  if (beyond < kMinSamplesBeyond) return std::nullopt;
  fifer::Percentiles p;
  p.add_all(samples);
  return p.quantile(q);
}

double median(const std::vector<double>& values) {
  fifer::Percentiles p;
  p.add_all(values);
  return p.median();
}

}  // namespace perfbench
