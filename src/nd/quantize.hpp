// Gray-level requantization.
//
// Haralick analysis is performed on images requantized to a small number of
// gray levels Ng (the paper uses Ng=32; levels > 32 rarely improve results).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "nd/volume4.hpp"

namespace h4d {

/// Gray level type after requantization. Ng <= 256.
using Level = std::uint8_t;

/// Linear min/max requantizer mapping [lo, hi] onto [0, Ng-1].
class Quantizer {
 public:
  Quantizer(double lo, double hi, int num_levels) : lo_(lo), hi_(hi), ng_(num_levels) {
    if (num_levels < 2 || num_levels > 256) {
      throw std::invalid_argument("Quantizer: Ng must be in [2, 256]");
    }
    if (!(hi > lo)) {
      // Degenerate (constant) input: everything maps to level 0.
      scale_ = 0.0;
    } else {
      scale_ = static_cast<double>(ng_) / (hi - lo);
    }
  }

  int num_levels() const { return ng_; }

  Level operator()(double v) const {
    if (scale_ == 0.0) return 0;
    const double q = (v - lo_) * scale_;
    const auto l = static_cast<std::int64_t>(q);
    return static_cast<Level>(std::clamp<std::int64_t>(l, 0, ng_ - 1));
  }

 private:
  double lo_;
  double hi_;
  int ng_;
  double scale_;
};

/// Min/max over a view.
template <typename T>
std::pair<double, double> min_max(Vol4View<const T> v) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  const Vec4 d = v.dims();
  for (std::int64_t t = 0; t < d[3]; ++t)
    for (std::int64_t z = 0; z < d[2]; ++z)
      for (std::int64_t y = 0; y < d[1]; ++y)
        for (std::int64_t x = 0; x < d[0]; ++x) {
          const double val = static_cast<double>(v.at(x, y, z, t));
          lo = std::min(lo, val);
          hi = std::max(hi, val);
        }
  return {lo, hi};
}

/// Requantize a whole volume to Ng levels using its global min/max.
template <typename T>
Volume4<Level> quantize_volume(const Volume4<T>& src, int num_levels) {
  const auto [lo, hi] = min_max<T>(src.view());
  const Quantizer q(lo, hi, num_levels);
  Volume4<Level> out(src.dims());
  const T* s = src.data();
  Level* d = out.data();
  const std::int64_t n = src.size();
  for (std::int64_t i = 0; i < n; ++i) d[i] = q(static_cast<double>(s[i]));
  return out;
}

/// Requantize with an externally supplied quantizer (used when the global
/// min/max is known from dataset metadata, so distributed readers agree).
template <typename T>
void quantize_into(Vol4View<const T> src, const Quantizer& q, Vol4View<Level> dst) {
  const Vec4 d = src.dims();
  for (std::int64_t t = 0; t < d[3]; ++t)
    for (std::int64_t z = 0; z < d[2]; ++z)
      for (std::int64_t y = 0; y < d[1]; ++y)
        for (std::int64_t x = 0; x < d[0]; ++x)
          dst.at(x, y, z, t) = q(static_cast<double>(src.at(x, y, z, t)));
}

}  // namespace h4d
