#pragma once

#include <optional>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is one or two outliers, not a percentile.
inline constexpr double kMinSamplesBeyond = 10.0;

/// The q-quantile of `samples` (linear interpolation, as
/// fifer::Percentiles), or nullopt when fewer than kMinSamplesBeyond
/// samples rank above it: q = 0.99 needs 1000 samples, the median 20.
std::optional<double> tail_quantile(const std::vector<double>& samples, double q);

/// Median of repeated measurements (any count >= 1; 0 when empty).
double median(const std::vector<double>& values);

}  // namespace perfbench
