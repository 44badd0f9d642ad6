"""Chain and spring pair potentials: values, derivatives, growth bounds."""

import numpy as np

from polynet import (
    ChainParams,
    GrowthBounds,
    PairPotential,
    check_growth_condition,
    inv_langevin_series,
)

print("Order-7 inverse-Langevin series")
for rho in (0.0, 0.1, 0.5, 1.0):
    print(f"  L^-1({rho:3.1f}) ~ {inv_langevin_series(rho):.10g}")

print("\nChain free energy, defaults k=1, beta=1, c=0 (n as stated)")
for n in (1.0, 8.0, 25.0):
    chain = PairPotential.langevin_chain(ChainParams(k=1.0, beta=1.0, c=0.0, n=n))
    row = ", ".join(f"W({r:g}) = {chain.energy(r):9.5f}" for r in (0.0, 0.5, 1.0, 2.0))
    print(f"  n = {n:4.0f}: {row}")

print("\nAnalytic derivative vs central differences at r = 0.8, n = 8")
chain = PairPotential.langevin_chain(ChainParams())
eps = 1e-6
fd = (chain.energy(0.8 + eps) - chain.energy(0.8 - eps)) / (2 * eps)
print(f"  analytic {chain.derivative(0.8):.12f}")
print(f"  fin diff {fd:.12f}")

print("\nGrowth condition of order p = 8 on [0, 10]")
chain = PairPotential.langevin_chain(ChainParams(k=1.0, beta=1.0, c=0.0, n=1.0))
bounds = GrowthBounds(p=8.0, c_lo=1.0, c_hi=2.0)
report = check_growth_condition(chain, bounds, r_max=10.0, samples=4096)
print(f"  holds = {report.holds}, worst margin {report.worst_violation:.4g} "
      f"at r = {report.witness:.4g}")

spring = PairPotential.quadratic_spring(1.0)
report = check_growth_condition(spring, GrowthBounds(8.0, 1e-9, 1.0), r_max=10.0)
print(f"  quadratic spring against the p = 8 upper bound: holds = {report.holds}")
