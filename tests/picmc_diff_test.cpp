// Differential test for the PIC kernels: deposit_density, push_species,
// ionize, elastic_scatter and gather must agree bit for bit with frozen
// copies of the straightforward loops they replaced (a gather call per
// particle that re-checks the field size, members reloaded after every
// particle store, std::exp for every collision candidate).  The references
// live only here, like the replay and codec references: they are the
// definition the library is checked against, never the reverse.
//
// Seeded multi-step runs cover every wall mode, a magnetised push, the
// field solver (E != 0) and elastic scattering; after every step each
// particle array, density, wall counter, ionisation total and the RNG
// state are compared bitwise.  A second suite checks the collision
// early-out against `u >= 1 - exp(a)` on seeded and edge exponents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <span>
#include <vector>

#include "picmc/fields.hpp"
#include "picmc/mc.hpp"
#include "picmc/mover.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bitio::picmc {
namespace {

// ------------------------------------------------- frozen reference kernels

/// Grid1D::locate as it stood: frozen, do not optimize.  (Only in-range
/// positions reach it here.)
std::pair<std::size_t, double> reference_locate(const Grid1D& grid,
                                                double x) {
  const double s = (x - grid.x0()) / grid.dx();
  std::size_t i = std::size_t(s);
  if (i >= grid.ncells()) i = grid.ncells() - 1;
  return {i, s - double(i)};
}

double reference_gather(const Grid1D& grid, std::span<const double> field,
                        double x) {
  if (field.size() != grid.nnodes())
    throw UsageError("gather: field size != nnodes");
  const auto [i, frac] = reference_locate(grid, x);
  return field[i] * (1.0 - frac) + field[i + 1] * frac;
}

void reference_deposit_density(const Grid1D& grid,
                               const ParticleBuffer& particles,
                               std::span<double> density, bool accumulate) {
  if (density.size() != grid.nnodes())
    throw UsageError("deposit_density: field size != nnodes");
  if (!accumulate) std::fill(density.begin(), density.end(), 0.0);
  const double inv_dx = 1.0 / grid.dx();
  const auto& x = particles.x();
  const auto& w = particles.w();
  for (std::size_t p = 0; p < particles.size(); ++p) {
    const auto [i, frac] = reference_locate(grid, x[p]);
    density[i] += w[p] * (1.0 - frac) * inv_dx;
    density[i + 1] += w[p] * frac * inv_dx;
  }
  density[0] *= 2.0;
  density[grid.ncells()] *= 2.0;
}

PushResult reference_push_species(const Grid1D& grid,
                                  std::span<const double> efield,
                                  ParticleBuffer& particles,
                                  const PushParams& params) {
  PushResult result;
  const double qm_dt = params.charge / params.mass * params.dt;
  auto& x = particles.x();
  auto& vx = particles.vx();
  auto& vy = particles.vy();
  const bool magnetized = params.bz != 0.0;
  const double t = magnetized
                       ? params.charge * params.bz / params.mass *
                             (0.5 * params.dt)
                       : 0.0;
  const double s = magnetized ? 2.0 * t / (1.0 + t * t) : 0.0;

  for (std::size_t p = 0; p < particles.size();) {
    const double e_here = reference_gather(grid, efield, x[p]);
    double ux = vx[p] + 0.5 * qm_dt * e_here;
    double uy = vy[p];
    if (magnetized) {
      const double px = ux + uy * t;
      const double py = uy - ux * t;
      ux = ux + py * s;
      uy = uy - px * s;
    }
    vx[p] = ux + 0.5 * qm_dt * e_here;
    vy[p] = uy;
    x[p] += vx[p] * params.dt;

    if (x[p] >= grid.x0() && x[p] <= grid.x1()) {
      ++p;
      continue;
    }
    switch (params.walls) {
      case WallMode::periodic: {
        const double length = grid.length();
        while (x[p] < grid.x0()) x[p] += length;
        while (x[p] > grid.x1()) x[p] -= length;
        ++p;
        break;
      }
      case WallMode::reflect: {
        if (x[p] < grid.x0()) x[p] = 2.0 * grid.x0() - x[p];
        if (x[p] > grid.x1()) x[p] = 2.0 * grid.x1() - x[p];
        vx[p] = -vx[p];
        if (x[p] < grid.x0()) x[p] = grid.x0();
        if (x[p] > grid.x1()) x[p] = grid.x1();
        ++p;
        break;
      }
      case WallMode::absorb: {
        if (x[p] < grid.x0()) {
          ++result.absorbed_left;
          result.absorbed_weight_left += particles.w()[p];
        } else {
          ++result.absorbed_right;
          result.absorbed_weight_right += particles.w()[p];
        }
        particles.swap_remove(p);
        break;
      }
    }
  }
  return result;
}

IonizationResult reference_ionize(const Grid1D& grid,
                                  std::span<const double> electron_density,
                                  ParticleBuffer& neutrals,
                                  ParticleBuffer& ions,
                                  ParticleBuffer& electrons,
                                  const IonizationParams& params, Rng& rng) {
  IonizationResult result;
  for (std::size_t p = 0; p < neutrals.size();) {
    const double n_e =
        reference_gather(grid, electron_density, neutrals.x()[p]);
    const double probability =
        1.0 - std::exp(-n_e * params.rate_coefficient * params.dt);
    if (rng.uniform() >= probability) {
      ++p;
      continue;
    }
    const double x = neutrals.x()[p];
    const double vx = neutrals.vx()[p];
    const double vy = neutrals.vy()[p];
    const double vz = neutrals.vz()[p];
    const double w = neutrals.w()[p];
    ions.push_back(x, vx, vy, vz, w);
    const double vt = params.electron_thermal_speed;
    electrons.push_back(x, vx + vt * rng.normal(), vy + vt * rng.normal(),
                        vz + vt * rng.normal(), w);
    neutrals.swap_remove(p);
    ++result.events;
    result.ionized_weight += w;
  }
  return result;
}

std::uint64_t reference_elastic_scatter(const Grid1D& grid,
                                        std::span<const double> neutral_density,
                                        ParticleBuffer& electrons,
                                        const ElasticParams& params,
                                        Rng& rng) {
  if (params.rate_coefficient <= 0.0) return 0;
  std::uint64_t events = 0;
  for (std::size_t p = 0; p < electrons.size(); ++p) {
    const double n_n =
        reference_gather(grid, neutral_density, electrons.x()[p]);
    const double probability =
        1.0 - std::exp(-n_n * params.rate_coefficient * params.dt);
    if (rng.uniform() >= probability) continue;
    const double vx = electrons.vx()[p];
    const double vy = electrons.vy()[p];
    const double vz = electrons.vz()[p];
    const double speed = std::sqrt(vx * vx + vy * vy + vz * vz);
    const double cos_theta = 2.0 * rng.uniform() - 1.0;
    const double sin_theta = std::sqrt(1.0 - cos_theta * cos_theta);
    const double phi = 2.0 * 3.14159265358979323846 * rng.uniform();
    electrons.vx()[p] = speed * cos_theta;
    electrons.vy()[p] = speed * sin_theta * std::cos(phi);
    electrons.vz()[p] = speed * sin_theta * std::sin(phi);
    ++events;
  }
  return events;
}

// ------------------------------------------------------------ the driver

/// One kernel set: the library's or the frozen references.
struct Kernels {
  void (*deposit)(const Grid1D&, const ParticleBuffer&, std::span<double>,
                  bool);
  PushResult (*push)(const Grid1D&, std::span<const double>,
                     ParticleBuffer&, const PushParams&);
  IonizationResult (*ionize)(const Grid1D&, std::span<const double>,
                             ParticleBuffer&, ParticleBuffer&,
                             ParticleBuffer&, const IonizationParams&, Rng&);
  std::uint64_t (*elastic)(const Grid1D&, std::span<const double>,
                           ParticleBuffer&, const ElasticParams&, Rng&);
};

const Kernels kLibrary{deposit_density, push_species, ionize,
                       elastic_scatter};
const Kernels kReference{reference_deposit_density, reference_push_species,
                         reference_ionize, reference_elastic_scatter};

struct Case {
  const char* name;
  WallMode walls;
  double bz;
  bool field_solver;
  double ionization_rate;
  double elastic_rate;
  // dx = 1/2: locate() multiplies by the exact reciprocal; otherwise
  // dx = 18/23, whose reciprocal is inexact, and locate() divides.
  bool power_of_two_dx = false;
};

// Species 0 electrons, 1 ions, 2 neutrals.
constexpr double kCharge[3] = {-1.0, 1.0, 0.0};
constexpr double kMass[3] = {1.0, 3671.5, 3671.5};
constexpr double kThermal[3] = {1.0, 0.03, 0.03};

/// The five-phase cycle of picmc::Simulation::step over one kernel set
/// (the field solve is the library's for both: it is not under test).
struct Plasma {
  Grid1D grid;
  ParticleBuffer species[3];
  std::vector<double> density[3];
  std::vector<double> rho, phi, efield;
  Rng rng;
  PushResult walls[3];
  std::uint64_t ionization_events = 0;
  double ionized_weight = 0.0;
  std::uint64_t elastic_events = 0;

  Plasma(std::uint64_t seed, bool power_of_two_dx)
      : grid(power_of_two_dx ? Grid1D(-3.0, 9.0, 24) : Grid1D(-0.7, 17.3, 23)),
        rng(seed, 7) {
    for (int s = 0; s < 3; ++s) {
      density[s].assign(grid.nnodes(), 0.0);
      const double vth = std::sqrt(kThermal[s] / kMass[s]);
      for (int p = 0; p < 1500; ++p)
        species[s].push_back(grid.x0() + rng.uniform() * grid.length(),
                             vth * rng.normal(), vth * rng.normal(),
                             vth * rng.normal(), 0.016 * (1.0 + rng.uniform()));
    }
    rho.assign(grid.nnodes(), 0.0);
    phi.assign(grid.nnodes(), 0.0);
    efield.assign(grid.nnodes(), 0.0);
  }

  void step(const Kernels& k, const Case& c) {
    for (int s = 0; s < 3; ++s)
      k.deposit(grid, species[s], density[s], false);
    if (c.field_solver) {
      std::fill(rho.begin(), rho.end(), 0.0);
      for (int s = 0; s < 3; ++s)
        for (std::size_t i = 0; i < rho.size(); ++i)
          rho[i] += kCharge[s] * density[s][i];
      solve_poisson(grid, rho, phi);
      electric_field(grid, phi, efield);
    }
    for (int s = 0; s < 3; ++s) {
      PushParams push;
      push.charge = kCharge[s];
      push.mass = kMass[s];
      push.dt = 0.2;
      push.bz = c.bz;
      push.walls = c.walls;
      const PushResult r = k.push(grid, efield, species[s], push);
      walls[s].absorbed_left += r.absorbed_left;
      walls[s].absorbed_right += r.absorbed_right;
      walls[s].absorbed_weight_left += r.absorbed_weight_left;
      walls[s].absorbed_weight_right += r.absorbed_weight_right;
    }
    IonizationParams ion;
    ion.rate_coefficient = c.ionization_rate;
    ion.dt = 0.2;
    ion.electron_thermal_speed = 1.0;
    const IonizationResult r = k.ionize(grid, density[0], species[2],
                                        species[1], species[0], ion, rng);
    ionization_events += r.events;
    ionized_weight += r.ionized_weight;
    elastic_events += k.elastic(grid, density[2], species[0],
                                ElasticParams{c.elastic_rate, 0.2}, rng);
  }
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const Plasma& lib, const Plasma& ref, int step) {
  for (int s = 0; s < 3; ++s) {
    SCOPED_TRACE(testing::Message() << "step " << step << " species " << s);
    const ParticleBuffer& a = lib.species[s];
    const ParticleBuffer& b = ref.species[s];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(same_bits(a.x(), b.x()));
    EXPECT_TRUE(same_bits(a.vx(), b.vx()));
    EXPECT_TRUE(same_bits(a.vy(), b.vy()));
    EXPECT_TRUE(same_bits(a.vz(), b.vz()));
    EXPECT_TRUE(same_bits(a.w(), b.w()));
    EXPECT_TRUE(same_bits(lib.density[s], ref.density[s]));
    EXPECT_EQ(lib.walls[s].absorbed_left, ref.walls[s].absorbed_left);
    EXPECT_EQ(lib.walls[s].absorbed_right, ref.walls[s].absorbed_right);
    EXPECT_TRUE(same_bits(lib.walls[s].absorbed_weight_left,
                          ref.walls[s].absorbed_weight_left));
    EXPECT_TRUE(same_bits(lib.walls[s].absorbed_weight_right,
                          ref.walls[s].absorbed_weight_right));
  }
  EXPECT_TRUE(same_bits(lib.efield, ref.efield));
  EXPECT_EQ(lib.ionization_events, ref.ionization_events);
  EXPECT_TRUE(same_bits(lib.ionized_weight, ref.ionized_weight));
  EXPECT_EQ(lib.elastic_events, ref.elastic_events);
  EXPECT_EQ(lib.rng.state(), ref.rng.state());
}

// Keeps the ctest names free of the raw parameter bytes (which include the
// address of `name`, so every test discovery would rename the cases).
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class KernelDiff : public testing::TestWithParam<Case> {};

TEST_P(KernelDiff, MatchesFrozenKernelsBitForBit) {
  const Case& c = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Plasma lib(seed, c.power_of_two_dx), ref(seed, c.power_of_two_dx);
    for (int step = 0; step < 30; ++step) {
      lib.step(kLibrary, c);
      ref.step(kReference, c);
      expect_identical(lib, ref, step);
      if (HasFailure()) return;
    }
    // The case must exercise what it claims to.
    if (c.ionization_rate > 0.0) {
      EXPECT_GT(lib.ionization_events, 0u);
    }
    if (c.elastic_rate > 0.0) {
      EXPECT_GT(lib.elastic_events, 0u);
    }
    if (c.walls == WallMode::absorb) {
      EXPECT_GT(lib.walls[0].absorbed_left + lib.walls[0].absorbed_right, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KernelDiff,
    testing::Values(
        // The paper's use case: unbounded, unmagnetised, no field solve.
        Case{"periodic", WallMode::periodic, 0.0, false, 0.05, 0.0},
        Case{"absorb_field", WallMode::absorb, 0.0, true, 0.05, 0.0},
        Case{"reflect_field_elastic", WallMode::reflect, 0.0, true, 0.05,
             0.1},
        Case{"absorb_bz_field", WallMode::absorb, 1.5, true, 0.05, 0.0},
        Case{"periodic_bz_elastic", WallMode::periodic, -0.7, false, 0.2,
             0.3},
        Case{"reflect_bz_field_elastic", WallMode::reflect, 2.0, true, 0.05,
             0.1},
        Case{"periodic_pow2", WallMode::periodic, 0.0, false, 0.05, 0.1, true},
        Case{"absorb_bz_field_pow2", WallMode::absorb, 1.5, true, 0.05, 0.1,
             true}),
    [](const testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

void expect_gather_matches(const Grid1D& grid) {
  std::vector<double> field(grid.nnodes());
  Rng rng(11);
  for (double& v : field) v = rng.normal();
  std::vector<double> xs{grid.x0(), grid.x1(),
                         std::nextafter(grid.x1(), 0.0),
                         std::nextafter(grid.x0(), 10.0)};
  for (std::size_t i = 0; i < grid.nnodes(); ++i)
    xs.push_back(grid.node_position(i));
  for (int i = 0; i < 10000; ++i)
    xs.push_back(grid.x0() + rng.uniform() * grid.length());
  for (double x : xs) {
    const double a = gather(grid, field, x);
    const double b = reference_gather(grid, field, x);
    ASSERT_TRUE(same_bits(a, b)) << "x = " << x;
  }
  EXPECT_THROW(gather(grid, std::span(field).first(3), 0.0), UsageError);
}

TEST(KernelDiff, GatherMatchesFrozenGather) {
  // dx = 8/37 divides; dx = 1/4 multiplies by the exact reciprocal.
  for (const Grid1D& grid : {Grid1D(-3.0, 5.0, 37), Grid1D(-3.0, 5.0, 32)}) {
    expect_gather_matches(grid);
    if (HasFailure()) return;
  }
}

TEST(KernelDiff, PushMatchesFrozenPushOffGridAndSignedZeros) {
  // Positions on and just past the walls, zero and signed-zero velocities,
  // both charge signs, a field of +0.0 (the field-free loop) and one with
  // a -0.0 node or real values (the interpolating loop).
  for (const Grid1D& grid :
       {Grid1D(-0.7, 17.3, 23), Grid1D(-3.0, 9.0, 24)}) {
    const double dx = grid.dx();
    const std::vector<double> xs{grid.x0(), grid.x1(), grid.x0() - 0.3 * dx,
                                 grid.x1() + 5.0, 3.0, grid.x0() + 0.5 * dx};
    const std::vector<double> vs{0.0, -0.0, 1.5, -2.25, 1e-300};
    std::vector<std::vector<double>> fields{
        std::vector<double>(grid.nnodes(), 0.0),
        std::vector<double>(grid.nnodes(), 0.0),
        std::vector<double>(grid.nnodes(), 0.0)};
    fields[1][5] = -0.0;
    for (std::size_t i = 0; i < grid.nnodes(); ++i)
      fields[2][i] = std::sin(double(i));
    for (const auto& field : fields) {
      for (WallMode walls :
           {WallMode::periodic, WallMode::reflect, WallMode::absorb}) {
        for (double charge : {-1.0, 1.0, 0.0}) {
          for (double bz : {0.0, 0.8}) {
            ParticleBuffer lib, ref;
            for (double x : xs)
              for (double v : vs) {
                lib.push_back(x, v, -v, v, 1.0);
                ref.push_back(x, v, -v, v, 1.0);
              }
            PushParams params;
            params.charge = charge;
            params.dt = 0.3;
            params.bz = bz;
            params.walls = walls;
            const PushResult a = push_species(grid, field, lib, params);
            const PushResult b =
                reference_push_species(grid, field, ref, params);
            ASSERT_EQ(lib.size(), ref.size());
            EXPECT_TRUE(same_bits(lib.x(), ref.x()));
            EXPECT_TRUE(same_bits(lib.vx(), ref.vx()));
            EXPECT_TRUE(same_bits(lib.vy(), ref.vy()));
            EXPECT_EQ(a.absorbed_left, b.absorbed_left);
            EXPECT_EQ(a.absorbed_right, b.absorbed_right);
          }
        }
      }
    }
  }
}

TEST(KernelDiff, SizeChecksStillThrow) {
  Grid1D grid(0.0, 4.0, 4);
  std::vector<double> short_field(3, 0.0);
  ParticleBuffer p;
  p.push_back(1.0, 0, 0, 0, 1.0);
  ParticleBuffer ions, electrons;
  Rng rng(1);
  EXPECT_THROW(push_species(grid, short_field, p, PushParams{}), UsageError);
  EXPECT_THROW(ionize(grid, short_field, p, ions, electrons,
                      IonizationParams{}, rng),
               UsageError);
  EXPECT_THROW(elastic_scatter(grid, short_field, p, ElasticParams{1.0, 0.1},
                               rng),
               UsageError);
}

// ------------------------------------------------------ collision early-out

/// The exact test the early-out must reproduce.
bool exact_miss(double a, double u) { return u >= 1.0 - std::exp(a); }

/// u values around the early-out bound and around the probability itself,
/// where a too-small margin would first disagree.
std::vector<double> probe_draws(double a) {
  std::vector<double> us{0.0, 0x1p-53, 0.5, 1.0 - 0x1p-53};
  const double bound = -a * (1.0 + 0x1p-40) + 0x1p-50;
  const double probability = 1.0 - std::exp(a);
  for (double centre : {bound, probability, -a}) {
    if (!std::isfinite(centre)) continue;
    double lo = centre, hi = centre;
    us.push_back(centre);
    for (int k = 0; k < 8; ++k) {
      lo = std::nextafter(lo, -INFINITY);
      hi = std::nextafter(hi, INFINITY);
      us.push_back(lo);
      us.push_back(hi);
    }
  }
  std::vector<double> in_range;
  for (double u : us)
    if (u >= 0.0 && u < 1.0) in_range.push_back(u);
  return in_range;
}

TEST(CollisionEarlyOut, AgreesWithExactTestOnEdgeExponents) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> exponents{
      0.0,     -0.0,     denorm,   -denorm, 1e-17, -1e-17, -6e-17,
      -1.2e-16, -2e-4,   -50.0,    50.0,    INFINITY, -INFINITY,
      std::numeric_limits<double>::quiet_NaN()};
  for (double a : exponents) {
    for (double u : probe_draws(a)) {
      ASSERT_EQ(collision_miss(a, u), exact_miss(a, u))
          << "a = " << a << ", u = " << u;
    }
  }
}

TEST(CollisionEarlyOut, AgreesWithExactTestOnSeededExponents) {
  Rng rng(2024);
  std::uint64_t early_region = 0;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform magnitudes from 1e-20 to 1e2, mostly negative (physical
    // densities) with some positive ones.
    const double magnitude = std::pow(10.0, -20.0 + 22.0 * rng.uniform());
    const double a = rng.uniform() < 0.9 ? -magnitude : magnitude;
    std::vector<double> us = probe_draws(a);
    for (int k = 0; k < 4; ++k) us.push_back(rng.uniform());
    for (double u : us) {
      ASSERT_EQ(collision_miss(a, u), exact_miss(a, u))
          << "a = " << a << ", u = " << u;
      if (u > -a * (1.0 + 0x1p-40) + 0x1p-50) ++early_region;
    }
  }
  EXPECT_GT(early_region, 0u);
}

}  // namespace
}  // namespace bitio::picmc
