#include "picmc/mover.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace bitio::picmc {

namespace {

/// The push loop, instantiated per magnetisation, so the unmagnetised loop
/// carries neither the rotation nor the v_y store (which would write back
/// the value it read), and per field-free-ness.  Grid, field and
/// parameters arrive as locals and raw pointers: particle stores cannot
/// alias them, so nothing is reloaded per particle.  Every floating-point
/// expression is evaluated in the order of the straightforward loop
/// (DESIGN.md §11).
///
/// Field-free: when every node of E is +0.0, the CIC interpolation at any
/// x in [x0, x1] is exactly +0.0 — the weight `frac` is finite and >= 0,
/// so field[i + 1] * frac is +0.0, and adding it to field[i] * (1 - frac)
/// (+0.0 or -0.0) gives +0.0 — so the loop skips the interpolation there.
/// Positions outside [x0, x1] (and NaN) still interpolate.
template <bool kMagnetized, bool kFieldFree>
PushResult push_loop(const Grid1D grid, const double* efield,
                     ParticleBuffer& particles, const PushParams params) {
  PushResult result;
  const double qm_dt = params.charge / params.mass * params.dt;
  // `0.5 * qm_dt * e` parses as `(0.5 * qm_dt) * e`, so hoisting the
  // product is exact.
  const double half_qm_dt = 0.5 * qm_dt;
  const double dt = params.dt;
  const double x0 = grid.x0();
  const double x1 = grid.x1();

  // Boris rotation half-angle terms for a uniform Bz (rotation in the
  // x-y velocity plane).
  const double t =
      kMagnetized ? params.charge * params.bz / params.mass * (0.5 * params.dt)
                  : 0.0;
  const double s = kMagnetized ? 2.0 * t / (1.0 + t * t) : 0.0;

  // swap_remove only pops, so the array pointers stay valid.
  double* const x = particles.x().data();
  double* const vx = particles.vx().data();
  double* const vy = particles.vy().data();
  std::size_t n = particles.size();
  for (std::size_t p = 0; p < n;) {
    const double e_here = kFieldFree && x[p] >= x0 && x[p] <= x1
                              ? 0.0
                              : grid.interpolate(efield, x[p]);
    // Half acceleration.
    double ux = vx[p] + half_qm_dt * e_here;
    if constexpr (kMagnetized) {
      double uy = vy[p];
      // v' = v + v x t ; v+ = v + v' x s  (z-rotation only).
      const double px = ux + uy * t;
      const double py = uy - ux * t;
      ux = ux + py * s;
      uy = uy - px * s;
      vy[p] = uy;
    }
    // Second half acceleration, then the position update.
    double v = ux + half_qm_dt * e_here;
    double xn = x[p] + v * dt;

    if (xn >= x0 && xn <= x1) {
      vx[p] = v;
      x[p] = xn;
      ++p;
      continue;
    }
    switch (params.walls) {
      case WallMode::periodic: {
        const double length = grid.length();
        while (xn < x0) xn += length;
        while (xn > x1) xn -= length;
        break;
      }
      case WallMode::reflect: {
        if (xn < x0) xn = 2.0 * x0 - xn;
        if (xn > x1) xn = 2.0 * x1 - xn;
        v = -v;
        // A particle deep past the wall (v dt >> L) could still be outside;
        // clamp defensively.
        if (xn < x0) xn = x0;
        if (xn > x1) xn = x1;
        break;
      }
      case WallMode::absorb: {
        if (xn < x0) {
          ++result.absorbed_left;
          result.absorbed_weight_left += particles.w()[p];
        } else {
          ++result.absorbed_right;
          result.absorbed_weight_right += particles.w()[p];
        }
        particles.swap_remove(p);  // do not advance p
        --n;
        continue;
      }
    }
    vx[p] = v;
    x[p] = xn;
    ++p;
  }
  return result;
}

}  // namespace

PushResult push_species(const Grid1D& grid, std::span<const double> efield,
                        ParticleBuffer& particles, const PushParams& params) {
  if (particles.empty()) return {};
  if (efield.size() != grid.nnodes())
    throw UsageError("gather: field size != nnodes");
  const bool field_free = std::all_of(
      efield.begin(), efield.end(),
      [](double e) { return std::bit_cast<std::uint64_t>(e) == 0; });
  const double* e = efield.data();
  if (params.bz != 0.0)
    return field_free ? push_loop<true, true>(grid, e, particles, params)
                      : push_loop<true, false>(grid, e, particles, params);
  return field_free ? push_loop<false, true>(grid, e, particles, params)
                    : push_loop<false, false>(grid, e, particles, params);
}

}  // namespace bitio::picmc
