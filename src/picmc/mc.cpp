#include "picmc/mc.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bitio::picmc {

namespace {

/// One Monte Carlo collision decision: true when a particle with collision
/// exponent a = -n R dt and uniform draw u does NOT collide, i.e. exactly
/// when `u >= 1 - exp(a)`.
///
/// Exact early-out.  Most particles miss (u is far above the probability),
/// so the miss is decided without calling exp when
///     u > -a (1 + 2^-40) + 2^-50,
/// and the exact test runs otherwise.  The early-out never disagrees with
/// the exact test:
///   * a <= 0: exp is within 1 ulp, so the computed exp(a) is at least
///     e^a (1 - 2^-52), and 1 - exp(a) is exact (Sterbenz, for exp(a) >=
///     1/2) or rounds within 2^-53; the computed probability is therefore
///     at most -a + 2^-52 + 2^-53.  The computed bound is at least
///     -a + 2^-50 - 2^-103 (the 2^-40 relative slack absorbs the rounding
///     of the product), so u above it is above the probability: a miss.
///   * a > 0: the probability is below zero, the exact test always misses.
///   * NaN makes the bound NaN and the comparison false: the exact path
///     runs.  a = -inf gives an infinite bound (exact path), a = +inf a
///     bound of -inf (a miss, as exactly), a = -0.0 the same as +0.0.
inline bool misses(double a, double u) {
  if (u > -a * (1.0 + 0x1p-40) + 0x1p-50) return true;
  return u >= 1.0 - std::exp(a);
}

/// The shared collision draw of ionize() and elastic_scatter(): `a` is
/// formed exactly as the straightforward `1.0 - std::exp(-n * R * dt)`
/// formed it, and u is drawn after it, as before (exp consumes no
/// randomness, so the stream is unchanged).
inline bool collides(double n, double rate_coefficient, double dt, Rng& rng) {
  const double a = -n * rate_coefficient * dt;
  const double u = rng.uniform();
  return !misses(a, u);
}

}  // namespace

bool collision_miss(double a, double u) { return misses(a, u); }

IonizationResult ionize(const Grid1D& grid,
                        std::span<const double> electron_density,
                        ParticleBuffer& neutrals, ParticleBuffer& ions,
                        ParticleBuffer& electrons,
                        const IonizationParams& params, Rng& rng) {
  IonizationResult result;
  if (neutrals.empty()) return result;
  if (electron_density.size() != grid.nnodes())
    throw UsageError("gather: field size != nnodes");
  // Locals and raw pointers: the ion/electron appends cannot alias them,
  // and swap_remove only pops, so the neutral arrays stay put.
  const Grid1D g = grid;
  const IonizationParams prm = params;
  const double* const n_e_field = electron_density.data();
  const double* const x = neutrals.x().data();
  const double* const vx = neutrals.vx().data();
  const double* const vy = neutrals.vy().data();
  const double* const vz = neutrals.vz().data();
  const double* const w = neutrals.w().data();
  std::size_t n = neutrals.size();
  for (std::size_t p = 0; p < n;) {
    const double n_e = g.interpolate(n_e_field, x[p]);
    if (!collides(n_e, prm.rate_coefficient, prm.dt, rng)) {
      ++p;
      continue;
    }
    // Convert: the ion keeps the neutral's full kinematic state.
    const double xp = x[p];
    const double vxp = vx[p];
    const double vyp = vy[p];
    const double vzp = vz[p];
    const double wp = w[p];
    ions.push_back(xp, vxp, vyp, vzp, wp);
    // The freed electron: neutral velocity plus an isotropic thermal kick.
    const double vt = prm.electron_thermal_speed;
    electrons.push_back(xp, vxp + vt * rng.normal(), vyp + vt * rng.normal(),
                        vzp + vt * rng.normal(), wp);
    neutrals.swap_remove(p);  // do not advance p
    --n;
    ++result.events;
    result.ionized_weight += wp;
  }
  return result;
}

std::uint64_t elastic_scatter(const Grid1D& grid,
                              std::span<const double> neutral_density,
                              ParticleBuffer& electrons,
                              const ElasticParams& params, Rng& rng) {
  if (params.rate_coefficient <= 0.0) return 0;
  if (electrons.empty()) return 0;
  if (neutral_density.size() != grid.nnodes())
    throw UsageError("gather: field size != nnodes");
  const Grid1D g = grid;
  const ElasticParams prm = params;
  const double* const n_n_field = neutral_density.data();
  const double* const x = electrons.x().data();
  double* const vx = electrons.vx().data();
  double* const vy = electrons.vy().data();
  double* const vz = electrons.vz().data();
  const std::size_t n = electrons.size();
  std::uint64_t events = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const double n_n = g.interpolate(n_n_field, x[p]);
    if (!collides(n_n, prm.rate_coefficient, prm.dt, rng)) continue;
    // Isotropic redirection at constant speed.
    const double vxp = vx[p];
    const double vyp = vy[p];
    const double vzp = vz[p];
    const double speed = std::sqrt(vxp * vxp + vyp * vyp + vzp * vzp);
    const double cos_theta = 2.0 * rng.uniform() - 1.0;
    const double sin_theta = std::sqrt(1.0 - cos_theta * cos_theta);
    const double phi = 2.0 * 3.14159265358979323846 * rng.uniform();
    vx[p] = speed * cos_theta;
    vy[p] = speed * sin_theta * std::cos(phi);
    vz[p] = speed * sin_theta * std::sin(phi);
    ++events;
  }
  return events;
}

}  // namespace bitio::picmc
