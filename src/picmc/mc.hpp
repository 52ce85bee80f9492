#pragma once
// Monte Carlo collision module.
//
// The paper's use case: "neutral particle ionization resulting from
// interactions with electrons ... neutral concentration decreases with time
// according to dn/dt = -n n_e R", with three species (e, D+ ions, D
// neutrals).  Each step, every neutral is ionized with probability
// p = 1 - exp(-n_e(x) R dt) using the local electron density; an ionization
// event converts the neutral into a D+ ion and spawns a new electron that
// inherits the neutral's velocity plus a thermal kick.
//
// A simple elastic electron-neutral scattering channel (isotropic velocity
// redirection at fixed speed) is included as well — BIT1 carries a large
// set of atomic collision channels; elastic scattering is the
// representative second channel our diagnostics ("slow1", self-consistent
// atomic collisions) exercise.

#include <span>

#include "picmc/grid.hpp"
#include "picmc/particles.hpp"
#include "util/rng.hpp"

namespace bitio::picmc {

/// The collision decision both channels share: true when a particle with
/// collision exponent a = -n R dt and uniform draw u does not collide —
/// exactly `u >= 1.0 - std::exp(a)`, decided without exp for most misses
/// (the argument is in mc.cpp and DESIGN.md §11).
bool collision_miss(double a, double u);

struct IonizationParams {
  double rate_coefficient = 1e-3;  // R in dn/dt = -n n_e R
  double dt = 0.1;
  double electron_thermal_speed = 1.0;  // kick for the freed electron
};

struct IonizationResult {
  std::uint64_t events = 0;
  double ionized_weight = 0.0;
};

/// Apply one ionization step: neutrals may convert into (ion, electron)
/// pairs.  `electron_density` is the node-centered n_e used for the local
/// collision probability.  The three buffers must be distinct.
IonizationResult ionize(const Grid1D& grid,
                        std::span<const double> electron_density,
                        ParticleBuffer& neutrals, ParticleBuffer& ions,
                        ParticleBuffer& electrons,
                        const IonizationParams& params, Rng& rng);

struct ElasticParams {
  double rate_coefficient = 0.0;  // nu = n_n R_el
  double dt = 0.1;
};

/// Elastic electron-neutral scattering: with probability
/// 1 - exp(-n_n(x) R dt), redirect the electron's velocity isotropically,
/// preserving its speed (energy-conserving in the heavy-scatterer limit).
std::uint64_t elastic_scatter(const Grid1D& grid,
                              std::span<const double> neutral_density,
                              ParticleBuffer& electrons,
                              const ElasticParams& params, Rng& rng);

}  // namespace bitio::picmc
