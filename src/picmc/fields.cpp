#include "picmc/fields.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bitio::picmc {

void deposit_density(const Grid1D& grid, const ParticleBuffer& particles,
                     std::span<double> density, bool accumulate) {
  if (density.size() != grid.nnodes())
    throw UsageError("deposit_density: field size != nnodes");
  if (!accumulate) std::fill(density.begin(), density.end(), 0.0);
  const double inv_dx = 1.0 / grid.dx();
  const auto& x = particles.x();
  const auto& w = particles.w();
  for (std::size_t p = 0; p < particles.size(); ++p) {
    const auto [i, frac] = grid.locate(x[p]);
    density[i] += w[p] * (1.0 - frac) * inv_dx;
    density[i + 1] += w[p] * frac * inv_dx;
  }
  // Half-cell volume correction at the walls.
  density[0] *= 2.0;
  density[grid.ncells()] *= 2.0;
}

void smooth_binomial(std::span<double> field, int passes) {
  const std::size_t n = field.size();
  if (n < 3 || passes <= 0) return;
  std::vector<double> tmp(n);
  for (int pass = 0; pass < passes; ++pass) {
    // Reflecting boundaries: ghost values mirror the interior, which keeps
    // the filter's total mass exactly.
    tmp[0] = 0.25 * field[1] + 0.5 * field[0] + 0.25 * field[1];
    tmp[n - 1] = 0.25 * field[n - 2] + 0.5 * field[n - 1] + 0.25 * field[n - 2];
    for (std::size_t i = 1; i + 1 < n; ++i)
      tmp[i] = 0.25 * field[i - 1] + 0.5 * field[i] + 0.25 * field[i + 1];
    std::copy(tmp.begin(), tmp.end(), field.begin());
  }
}

void solve_poisson(const Grid1D& grid, std::span<const double> rho,
                   std::span<double> phi, double eps0) {
  const std::size_t n = grid.nnodes();
  if (rho.size() != n || phi.size() != n)
    throw UsageError("solve_poisson: field size != nnodes");
  phi[0] = 0.0;
  phi[n - 1] = 0.0;
  if (n <= 2) return;

  // Interior unknowns i = 1..n-2:  (-phi[i-1] + 2 phi[i] - phi[i+1]) =
  // dx^2 rho[i] / eps0.  Thomas algorithm with constant coefficients.
  const std::size_t m = n - 2;
  const double h2 = grid.dx() * grid.dx() / eps0;
  std::vector<double> c(m), d(m);
  // Forward sweep.  a = -1, b = 2, c = -1.
  double beta = 2.0;
  c[0] = -1.0 / beta;
  d[0] = h2 * rho[1] / beta;
  for (std::size_t i = 1; i < m; ++i) {
    beta = 2.0 + c[i - 1];
    c[i] = -1.0 / beta;
    d[i] = (h2 * rho[i + 1] + d[i - 1]) / beta;
  }
  // Back substitution.
  phi[m] = d[m - 1];
  for (std::size_t i = m - 1; i > 0; --i)
    phi[i] = d[i - 1] - c[i - 1] * phi[i + 1];
}

void electric_field(const Grid1D& grid, std::span<const double> phi,
                    std::span<double> efield) {
  const std::size_t n = grid.nnodes();
  if (phi.size() != n || efield.size() != n)
    throw UsageError("electric_field: field size != nnodes");
  const double inv_2dx = 0.5 / grid.dx();
  if (n == 1) {
    efield[0] = 0.0;
    return;
  }
  efield[0] = -(phi[1] - phi[0]) / grid.dx();
  efield[n - 1] = -(phi[n - 1] - phi[n - 2]) / grid.dx();
  for (std::size_t i = 1; i + 1 < n; ++i)
    efield[i] = -(phi[i + 1] - phi[i - 1]) * inv_2dx;
}

double gather(const Grid1D& grid, std::span<const double> field, double x) {
  if (field.size() != grid.nnodes())
    throw UsageError("gather: field size != nnodes");
  return grid.interpolate(field.data(), x);
}

}  // namespace bitio::picmc
