// Tests for the PIC MC substrate: field operations against analytic
// solutions, mover kinematics, MC ionization vs. the paper's rate ODE,
// diagnostics semantics, checkpoint round trip, and the original serial
// I/O's file population.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "picmc/checkpoint.hpp"
#include "picmc/diagnostics.hpp"
#include "picmc/fields.hpp"
#include "picmc/serial_io.hpp"
#include "picmc/simulation.hpp"
#include "util/error.hpp"

namespace bitio::picmc {
namespace {

// ---------------------------------------------------------------- fields ---

TEST(Fields, UniformPlasmaDepositsUniformDensity) {
  Grid1D grid(0.0, 10.0, 50);
  ParticleBuffer particles;
  Rng rng(1);
  const std::size_t n = 200000;
  const double weight = 3.0 * grid.length() / double(n);  // density 3.0
  for (std::size_t i = 0; i < n; ++i)
    particles.push_back(grid.x0() + rng.uniform() * grid.length(), 0, 0, 0,
                        weight);
  std::vector<double> density(grid.nnodes());
  deposit_density(grid, particles, density);
  for (std::size_t i = 0; i < density.size(); ++i)
    EXPECT_NEAR(density[i], 3.0, 0.15) << "node " << i;
}

TEST(Fields, DepositConservesWeight) {
  Grid1D grid(0.0, 4.0, 16);
  ParticleBuffer particles;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i)
    particles.push_back(grid.x0() + rng.uniform() * grid.length(), 0, 0, 0,
                        rng.uniform(0.5, 2.0));
  std::vector<double> density(grid.nnodes());
  deposit_density(grid, particles, density);
  // Trapezoid integral of node density (half weights at walls are exact
  // because deposit doubles the boundary nodes).
  double integral = 0.0;
  for (std::size_t i = 0; i < density.size(); ++i) {
    const double w = (i == 0 || i + 1 == density.size()) ? 0.5 : 1.0;
    integral += w * density[i] * grid.dx();
  }
  EXPECT_NEAR(integral, particles.total_weight(), 1e-9);
}

TEST(Fields, SmootherPreservesSumAndDamps) {
  std::vector<double> field(64, 0.0);
  field[32] = 100.0;  // spike = highest-frequency content
  const double sum_before =
      std::accumulate(field.begin(), field.end(), 0.0);
  smooth_binomial(field, 3);
  const double sum_after = std::accumulate(field.begin(), field.end(), 0.0);
  EXPECT_NEAR(sum_after, sum_before, 1e-9);
  EXPECT_LT(field[32], 40.0);        // spike damped
  EXPECT_GT(field[31], 0.0);         // spread to neighbours
}

TEST(Fields, PoissonMatchesQuadraticSolution) {
  // rho = const => phi = rho/(2 eps0) x (L - x), the textbook parabola.
  Grid1D grid(0.0, 1.0, 128);
  std::vector<double> rho(grid.nnodes(), 2.0);
  std::vector<double> phi(grid.nnodes());
  solve_poisson(grid, rho, phi);
  for (std::size_t i = 0; i < grid.nnodes(); ++i) {
    const double x = grid.node_position(i);
    EXPECT_NEAR(phi[i], x * (1.0 - x), 1e-9) << "node " << i;
  }
}

TEST(Fields, PoissonMatchesSineEigenfunction) {
  // For rho = sin(k x), the second-difference operator has eigenvalue
  // (2 - 2cos(k dx))/dx^2, so the discrete solution is exactly
  // sin(k x) / lambda at the nodes.
  Grid1D grid(0.0, 1.0, 64);
  const double k = 3.0 * M_PI;  // integer half-waves: sin vanishes at walls
  std::vector<double> rho(grid.nnodes()), phi(grid.nnodes());
  for (std::size_t i = 0; i < grid.nnodes(); ++i)
    rho[i] = std::sin(k * grid.node_position(i));
  solve_poisson(grid, rho, phi);
  const double lambda =
      (2.0 - 2.0 * std::cos(k * grid.dx())) / (grid.dx() * grid.dx());
  for (std::size_t i = 0; i < grid.nnodes(); ++i)
    EXPECT_NEAR(phi[i], rho[i] / lambda, 1e-9);
}

TEST(Fields, ElectricFieldOfLinearPotential) {
  Grid1D grid(0.0, 2.0, 10);
  std::vector<double> phi(grid.nnodes()), e(grid.nnodes());
  for (std::size_t i = 0; i < grid.nnodes(); ++i)
    phi[i] = 5.0 * grid.node_position(i);
  electric_field(grid, phi, e);
  for (double v : e) EXPECT_NEAR(v, -5.0, 1e-12);
}

TEST(Fields, GatherInterpolatesLinearly) {
  Grid1D grid(0.0, 1.0, 4);
  std::vector<double> f{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(gather(grid, f, 0.125), 0.5, 1e-12);
  EXPECT_NEAR(gather(grid, f, 0.25), 1.0, 1e-12);
  EXPECT_NEAR(gather(grid, f, 1.0), 4.0, 1e-12);  // right edge clamps
}

TEST(Fields, LocateLeftEdgeClamps) {
  // Below x0 - dx and for NaN the cell index clamps to the first cell (the
  // unsigned conversion of a negative index would be undefined); the
  // weight keeps extrapolating linearly, like the right edge.
  Grid1D grid(0.0, 1.0, 4);
  std::vector<double> f{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(grid.locate(-0.1).first, 0u);  // within one cell: as before
  EXPECT_EQ(grid.locate(-0.5).first, 0u);
  EXPECT_EQ(grid.locate(-1e300).first, 0u);
  EXPECT_EQ(grid.locate(std::nan("")).first, 0u);
  EXPECT_EQ(grid.locate(1e300).first, 3u);
  EXPECT_EQ(grid.locate(INFINITY).first, 3u);
  EXPECT_NEAR(gather(grid, f, -0.5), -2.0, 1e-12);
  EXPECT_NEAR(gather(grid, f, -0.1), -0.4, 1e-12);
  EXPECT_TRUE(std::isnan(gather(grid, f, std::nan(""))));
}

// ----------------------------------------------------------------- mover ---

TEST(Mover, ConstantFieldKinematics) {
  // Leapfrog in a uniform field: after n steps, v = v0 + n qE/m dt.
  Grid1D grid(0.0, 1000.0, 10);
  std::vector<double> efield(grid.nnodes(), 2.0);
  ParticleBuffer p;
  p.push_back(500.0, 0.0, 0.0, 0.0, 1.0);
  PushParams params;
  params.charge = -1.0;
  params.mass = 1.0;
  params.dt = 0.01;
  params.walls = WallMode::absorb;
  for (int n = 0; n < 100; ++n) push_species(grid, efield, p, params);
  EXPECT_NEAR(p.vx()[0], -2.0, 1e-9);  // qE/m t = -2 * 1.0
}

TEST(Mover, AbsorbingWallsCountFlux) {
  Grid1D grid(0.0, 1.0, 4);
  std::vector<double> efield(grid.nnodes(), 0.0);
  ParticleBuffer p;
  p.push_back(0.1, -1.0, 0, 0, 2.0);  // exits left
  p.push_back(0.9, +1.0, 0, 0, 3.0);  // exits right
  p.push_back(0.5, 0.01, 0, 0, 1.0);  // stays
  PushParams params;
  params.charge = 0.0;
  params.dt = 0.5;
  params.walls = WallMode::absorb;
  const PushResult result = push_species(grid, efield, p, params);
  EXPECT_EQ(result.absorbed_left, 1u);
  EXPECT_EQ(result.absorbed_right, 1u);
  EXPECT_DOUBLE_EQ(result.absorbed_weight_left, 2.0);
  EXPECT_DOUBLE_EQ(result.absorbed_weight_right, 3.0);
  EXPECT_EQ(p.size(), 1u);
}

TEST(Mover, ReflectingWallsConserveParticlesAndSpeed) {
  Grid1D grid(0.0, 1.0, 4);
  std::vector<double> efield(grid.nnodes(), 0.0);
  ParticleBuffer p;
  p.push_back(0.05, -1.0, 0, 0, 1.0);
  PushParams params;
  params.charge = 0.0;
  params.dt = 0.2;
  params.walls = WallMode::reflect;
  push_species(grid, efield, p, params);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NEAR(p.x()[0], 0.15, 1e-12);  // reflected off x=0
  EXPECT_DOUBLE_EQ(p.vx()[0], 1.0);
}

TEST(Mover, PeriodicWrapsPosition) {
  Grid1D grid(0.0, 1.0, 4);
  std::vector<double> efield(grid.nnodes(), 0.0);
  ParticleBuffer p;
  p.push_back(0.9, 1.0, 0, 0, 1.0);
  PushParams params;
  params.charge = 0.0;
  params.dt = 0.3;
  params.walls = WallMode::periodic;
  push_species(grid, efield, p, params);
  EXPECT_NEAR(p.x()[0], 0.2, 1e-12);
}

TEST(Mover, BorisRotationPreservesSpeed) {
  Grid1D grid(0.0, 10.0, 4);
  std::vector<double> efield(grid.nnodes(), 0.0);
  ParticleBuffer p;
  p.push_back(5.0, 1.0, 0.5, 0.25, 1.0);
  PushParams params;
  params.charge = -1.0;
  params.mass = 1.0;
  params.dt = 0.05;
  params.bz = 2.0;
  params.walls = WallMode::periodic;
  const double speed2_before = 1.0 + 0.25 + 0.0625;
  for (int i = 0; i < 200; ++i) push_species(grid, efield, p, params);
  const double speed2 = p.vx()[0] * p.vx()[0] + p.vy()[0] * p.vy()[0] +
                        p.vz()[0] * p.vz()[0];
  EXPECT_NEAR(speed2, speed2_before, 1e-9);  // Boris is norm-preserving
}

// -------------------------------------------------------------------- mc ---

TEST(Mc, IonizationFollowsRateEquation) {
  // dn/dt = -n n_e R with uniform n_e: neutral weight decays exponentially.
  Grid1D grid(0.0, 32.0, 32);
  std::vector<double> n_e(grid.nnodes(), 4.0);
  ParticleBuffer neutrals, ions, electrons;
  Rng rng(3);
  const std::size_t n0 = 100000;
  for (std::size_t i = 0; i < n0; ++i)
    neutrals.push_back(rng.uniform() * 32.0, 0, 0, 0, 1.0);

  IonizationParams params;
  params.rate_coefficient = 5e-3;
  params.dt = 1.0;
  const int steps = 50;
  for (int s = 0; s < steps; ++s)
    ionize(grid, n_e, neutrals, ions, electrons, params, rng);

  const double expected =
      double(n0) *
      std::exp(-4.0 * params.rate_coefficient * params.dt * steps);
  EXPECT_NEAR(double(neutrals.size()), expected, 0.02 * double(n0));
  // Bookkeeping: every ionization makes exactly one ion and one electron.
  EXPECT_EQ(ions.size(), n0 - neutrals.size());
  EXPECT_EQ(electrons.size(), n0 - neutrals.size());
}

TEST(Mc, ElasticScatteringPreservesSpeedAndCount) {
  Grid1D grid(0.0, 8.0, 8);
  std::vector<double> n_n(grid.nnodes(), 100.0);
  ParticleBuffer electrons;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i)
    electrons.push_back(rng.uniform() * 8.0, 3.0, 4.0, 0.0, 1.0);  // |v|=5
  ElasticParams params{1.0, 1.0};  // probability ~ 1
  const std::uint64_t events =
      elastic_scatter(grid, n_n, electrons, params, rng);
  EXPECT_GT(events, 900u);
  EXPECT_EQ(electrons.size(), 1000u);
  for (std::size_t i = 0; i < electrons.size(); ++i) {
    const double v2 = electrons.vx()[i] * electrons.vx()[i] +
                      electrons.vy()[i] * electrons.vy()[i] +
                      electrons.vz()[i] * electrons.vz()[i];
    EXPECT_NEAR(v2, 25.0, 1e-9);
  }
}

// ------------------------------------------------------------- simulation ---

TEST(Simulation, IonizationCaseRunsAndDecaysNeutrals) {
  auto config = SimConfig::ionization_case(64, 64);
  config.last_step = 200;
  config.ionization_rate = 5e-2;  // fast decay at test scale
  Simulation sim(config);
  sim.initialize();
  const double neutrals0 =
      sim.species_named("D").particles.total_weight();
  const double electrons0 =
      sim.species_named("e").particles.total_weight();
  sim.run();
  EXPECT_EQ(sim.current_step(), 200u);
  const double neutrals1 = sim.species_named("D").particles.total_weight();
  // Neutral depletion happened and is mirrored by new electrons + ions.
  EXPECT_LT(neutrals1, neutrals0 * 0.9);
  EXPECT_NEAR(sim.species_named("e").particles.total_weight(),
              electrons0 + (neutrals0 - neutrals1), 1e-6);
  EXPECT_NEAR(sim.ionized_weight(), neutrals0 - neutrals1, 1e-6);
  // Exponential-decay sanity: match dn/dt = -n n_e R within MC noise.
  const double n_e = 1.0;  // initial electron density in the case config
  const double expected = neutrals0 *
      std::exp(-n_e * config.ionization_rate * config.dt * 200.0);
  EXPECT_NEAR(neutrals1, expected, 0.15 * neutrals0);
}

TEST(Simulation, FieldSolverKeepsQuasiNeutralPlasmaStable) {
  auto config = SimConfig::ionization_case(32, 64);
  config.use_field_solver = true;
  config.smoothing_passes = 2;
  config.ionization_rate = 0.0;
  config.last_step = 50;
  Simulation sim(config);
  sim.initialize();
  sim.run();
  // A quasi-neutral plasma must not blow up: field energy stays small.
  double max_e = 0.0;
  for (double e : sim.efield()) max_e = std::max(max_e, std::abs(e));
  EXPECT_LT(max_e, 1.0);
  EXPECT_GT(sim.local_particles(), 0u);
}

TEST(Simulation, RankDecompositionPartitionsParticles) {
  auto config = SimConfig::ionization_case(32, 40);
  std::uint64_t total = 0;
  for (int r = 0; r < 4; ++r) {
    Simulation sim(config, r, 4);
    sim.initialize();
    total += sim.local_particles();
  }
  Simulation whole(config);
  whole.initialize();
  EXPECT_EQ(total, whole.local_particles());
}

TEST(Simulation, ValidatesConfig) {
  SimConfig config;  // no species
  EXPECT_THROW(Simulation sim(config), UsageError);
  auto good = SimConfig::ionization_case(8, 2);
  EXPECT_THROW(Simulation(good, 5, 4), UsageError);
  Simulation sim(good);
  EXPECT_THROW(sim.species_named("W"), UsageError);
}

// ------------------------------------------------------------- diagnostics ---

TEST(Diagnostics, MvflagAveragingSemantics) {
  auto config = SimConfig::ionization_case(16, 8);
  config.mvflag = 3;   // average over 3 samples
  config.mvstep = 5;   // sample every 5 steps
  config.last_step = 40;
  Simulation sim(config);
  sim.initialize();
  Diagnostics diag;
  std::vector<std::uint64_t> completed_at;
  sim.run({}, [&](Simulation& s) {
    if (diag.observe(s)) completed_at.push_back(s.current_step());
  });
  // Samples at 5,10,15 (complete), 20,25,30 (complete), 35,40 (incomplete).
  EXPECT_EQ(completed_at, (std::vector<std::uint64_t>{15, 30}));
  EXPECT_EQ(diag.snapshots_completed(), 2u);
  const auto& snap = diag.latest();
  EXPECT_EQ(snap.step, 30u);
  ASSERT_EQ(snap.species.size(), 3u);
  EXPECT_EQ(snap.species[0].density.size(), sim.grid().nnodes());
  EXPECT_GT(snap.species[0].total_weight, 0.0);
}

TEST(Diagnostics, DisabledWhenMvflagZero) {
  auto config = SimConfig::ionization_case(16, 8);
  config.mvflag = 0;
  config.last_step = 20;
  Simulation sim(config);
  sim.initialize();
  Diagnostics diag;
  sim.run({}, [&](Simulation& s) { EXPECT_FALSE(diag.observe(s)); });
  EXPECT_EQ(diag.snapshots_completed(), 0u);
}

TEST(Diagnostics, SampleNowReflectsState) {
  auto config = SimConfig::ionization_case(16, 16);
  Simulation sim(config);
  sim.initialize();
  const auto snap = Diagnostics::sample_now(sim);
  ASSERT_EQ(snap.species.size(), 3u);
  for (const auto& sp : snap.species) {
    const double vdf_total =
        std::accumulate(sp.vdf_vx.begin(), sp.vdf_vx.end(), 0.0);
    // Essentially all Maxwellian particles fall inside +-6 vth.
    EXPECT_NEAR(vdf_total, sp.total_weight, 0.01 * sp.total_weight);
  }
}

// -------------------------------------------------------------- checkpoint ---

TEST(Checkpoint, RoundTripIsBitExact) {
  auto config = SimConfig::ionization_case(32, 16);
  config.last_step = 30;
  Simulation sim(config);
  sim.initialize();
  sim.run();
  const auto blob = save_checkpoint(sim);

  Simulation restored(config);
  load_checkpoint(restored, blob);
  EXPECT_EQ(restored.current_step(), sim.current_step());
  EXPECT_EQ(restored.ionization_events(), sim.ionization_events());
  for (std::size_t s = 0; s < sim.species_count(); ++s) {
    const auto& a = sim.species(s).particles;
    const auto& b = restored.species(s).particles;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.x(), b.x());
    EXPECT_EQ(a.vx(), b.vx());
    EXPECT_EQ(a.w(), b.w());
  }
  // RNG state restored => continued evolution is bit-identical.
  sim.step();
  restored.step();
  EXPECT_EQ(sim.species(0).particles.x(), restored.species(0).particles.x());
}

TEST(Checkpoint, CrossStepBoundaryResumeIsBitIdentical) {
  // Run N steps, checkpoint, run M more; a fresh simulation restored from
  // the checkpoint and run the same M steps must be bit-identical — the
  // restart crosses the step boundary with no drift in particles, RNG, or
  // Monte Carlo counters.
  auto config = SimConfig::ionization_case(32, 16);
  config.last_step = 60;
  Simulation sim(config);
  sim.initialize();
  while (sim.current_step() < 25) sim.step();
  const auto blob = save_checkpoint(sim);
  while (sim.current_step() < 60) sim.step();

  Simulation resumed(config);
  load_checkpoint(resumed, blob);
  EXPECT_EQ(resumed.current_step(), 25u);
  while (resumed.current_step() < 60) resumed.step();

  EXPECT_EQ(resumed.current_step(), sim.current_step());
  EXPECT_EQ(resumed.ionization_events(), sim.ionization_events());
  EXPECT_EQ(resumed.ionized_weight(), sim.ionized_weight());
  EXPECT_EQ(resumed.rng().state(), sim.rng().state());
  for (std::size_t s = 0; s < sim.species_count(); ++s) {
    const auto& a = sim.species(s).particles;
    const auto& b = resumed.species(s).particles;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.x(), b.x());
    EXPECT_EQ(a.vx(), b.vx());
    EXPECT_EQ(a.vy(), b.vy());
    EXPECT_EQ(a.vz(), b.vz());
    EXPECT_EQ(a.w(), b.w());
    EXPECT_EQ(resumed.species(s).absorbed_left, sim.species(s).absorbed_left);
    EXPECT_EQ(resumed.species(s).absorbed_right,
              sim.species(s).absorbed_right);
  }
}

TEST(Checkpoint, DetectsCorruptionAndMismatch) {
  auto config = SimConfig::ionization_case(16, 4);
  Simulation sim(config);
  sim.initialize();
  auto blob = save_checkpoint(sim);
  auto bad = blob;
  bad[0] ^= 0xFF;
  EXPECT_THROW(load_checkpoint(sim, bad), FormatError);
  bad = blob;
  bad.resize(bad.size() / 2);
  EXPECT_THROW(load_checkpoint(sim, bad), FormatError);

  auto other_config = SimConfig::ionization_case(16, 4);
  other_config.species.pop_back();
  Simulation other(other_config);
  EXPECT_THROW(load_checkpoint(other, blob), UsageError);
}

// ---------------------------------------------------------------- serial io ---

TEST(SerialIo, FilePopulationMatchesTable2Formula) {
  // 2 .dat files per rank + 6 globals = 2N + 6 (Table II: 262 at 128x2).
  fsim::SharedFs fs(8);
  const int nranks = 4;
  auto config = SimConfig::ionization_case(16, 8);
  config.last_step = 10;

  std::vector<std::vector<std::uint8_t>> states;
  for (int r = 0; r < nranks; ++r) {
    Simulation sim(config, r, nranks);
    sim.initialize();
    sim.run();
    Bit1SerialWriter writer(fs, "run", r, nranks);
    writer.write_input_echo(config);
    const auto snap = Diagnostics::sample_now(sim);
    writer.write_diagnostics(sim, snap);
    writer.write_diagnostics(sim, snap);  // second dump appends, no new file
    if (r == 0) writer.write_history(sim, sim.local_particles(), 1.0);
    states.push_back(save_checkpoint(sim));
  }
  Bit1SerialWriter root(fs, "run", 0, nranks);
  root.write_checkpoint(states);

  EXPECT_EQ(fs.store().list_recursive("run").size(),
            std::size_t(2 * nranks + 6));
}

TEST(SerialIo, CheckpointGatherRestoresEveryRank) {
  fsim::SharedFs fs(4);
  auto config = SimConfig::ionization_case(16, 8);
  config.last_step = 5;
  std::vector<std::vector<std::uint8_t>> states;
  std::vector<std::uint64_t> counts;
  for (int r = 0; r < 3; ++r) {
    Simulation sim(config, r, 3);
    sim.initialize();
    sim.run();
    states.push_back(save_checkpoint(sim));
    counts.push_back(sim.local_particles());
  }
  Bit1SerialWriter root(fs, "run", 0, 3);
  root.write_checkpoint(states);

  const auto blobs = root.read_checkpoint();
  ASSERT_EQ(blobs.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    Simulation restored(config, r, 3);
    load_checkpoint(restored, blobs[std::size_t(r)]);
    EXPECT_EQ(restored.local_particles(), counts[std::size_t(r)]);
  }
}

TEST(SerialIo, WritesAreStdioSizedRecords) {
  fsim::SharedFs fs(4);
  auto config = SimConfig::ionization_case(64, 32);
  Simulation sim(config);
  sim.initialize();
  Bit1SerialWriter writer(fs, "run", 0, 1);
  writer.write_diagnostics(sim, Diagnostics::sample_now(sim));
  for (const auto& op : fs.trace()) {
    if (op.kind != fsim::OpKind::write) continue;
    // Every coalesced record is at most the stdio buffer size.
    EXPECT_LE(op.bytes / op.op_count, Bit1SerialWriter::kStdioRecord);
  }
}

}  // namespace
}  // namespace bitio::picmc
