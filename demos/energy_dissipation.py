#!/usr/bin/env python3
"""Deterministic gradient flow: the energy decays monotonically and the
per-step energy identity holds to rounding.  Prints the energy trace and the
worst identity residual over the run."""

import numpy as np

from sacpde.mesh_fem import FemSpace, PeriodicMesh, l2_project
from sacpde.model import initial_datum, make_sigma
from sacpde.stepper import FemBackend, SchemeConfig, run_trajectory

N = 64
J = 200
T = 0.5

space = FemSpace(PeriodicMesh(d=1, R=1.0, n=N))
cfg = SchemeConfig(k=T / J, newton_tol=1e-12)
y0 = l2_project(space, initial_datum("cos", 1.0))

traj = run_trajectory(
    FemBackend(space, make_sigma("zero")), cfg, y0, np.zeros(J), with_identity=True
)

print("step   time     energy      gradient    potential")
for j in range(0, J + 1, 20):
    if j == 0:
        print("%4d  %6.3f  %10.6f" % (0, 0.0, traj.energies[0]))
    else:
        row = traj.diagnostics[j - 1]
        print(
            "%4d  %6.3f  %10.6f  %10.6f  %10.6f"
            % (j, row["t"], row["energy_total"], row["gradient_part"], row["potential_part"])
        )

increases = np.diff(traj.energies)
worst_resid = max(check.residual for check in traj.identity)
print()
print("monotone decay: %s (max step change %.3e)" % (np.all(increases <= 0), increases.max()))
print("worst identity residual: %.3e (contract 1e-10)" % worst_resid)
