#pragma once
// 1D spatial grid.  Node-centered fields: ncells cells bounded by
// ncells + 1 nodes; densities and potentials live on nodes.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bitio::picmc {

class Grid1D {
public:
  Grid1D(double x0, double x1, std::size_t ncells)
      : x0_(x0), x1_(x1), ncells_(ncells) {
    if (ncells == 0 || x1 <= x0)
      throw UsageError("Grid1D: need x1 > x0 and ncells > 0");
    dx_ = (x1 - x0) / double(ncells);
    // For a normal power-of-two dx, 1 / dx is exact and y * (1 / dx) is
    // the correctly rounded y / dx bit for bit (both round the same real
    // number), so locate() may multiply instead of divide.  Any other dx
    // keeps the division: its reciprocal is inexact.
    int exponent = 0;
    if (std::isnormal(dx_) && std::frexp(dx_, &exponent) == 0.5)
      inv_dx_ = 1.0 / dx_;
  }

  double x0() const { return x0_; }
  double x1() const { return x1_; }
  double dx() const { return dx_; }
  double length() const { return x1_ - x0_; }
  std::size_t ncells() const { return ncells_; }
  std::size_t nnodes() const { return ncells_ + 1; }

  double node_position(std::size_t i) const { return x0_ + double(i) * dx_; }

  bool contains(double x) const { return x >= x0_ && x <= x1_; }

  /// Lower node index and CIC weight of a position (weight of the *upper*
  /// node is the returned fraction).  Out-of-range positions clamp the cell,
  /// not the weight: x >= x1 lands in the last cell, x < x0 and NaN in the
  /// first (converting a negative or NaN `s` to std::size_t would be
  /// undefined).
  std::pair<std::size_t, double> locate(double x) const {
    const double s = inv_dx_ != 0.0 ? (x - x0_) * inv_dx_ : (x - x0_) / dx_;
    std::size_t i;
    if (s >= 0.0 && s < double(ncells_))  // every in-range particle
      i = std::size_t(std::int64_t(s));
    else  // x >= x1 (x == x1 included) clamps right, x < x0 and NaN left
      i = s >= double(ncells_) ? ncells_ - 1 : 0;
    return {i, s - double(i)};
  }

  /// CIC interpolation of a node field (nnodes() values, unchecked) at x.
  /// The one definition every particle loop uses; gather() checks the
  /// field size and delegates here.
  double interpolate(const double* field, double x) const {
    const auto [i, frac] = locate(x);
    return field[i] * (1.0 - frac) + field[i + 1] * frac;
  }

private:
  double x0_, x1_, dx_;
  double inv_dx_ = 0.0;  // 1 / dx when that is exact, else 0
  std::size_t ncells_;
};

}  // namespace bitio::picmc
