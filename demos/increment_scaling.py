#!/usr/bin/env python3
"""Temporal Hoelder scaling of the solution increments.

For each lag tau the study estimates E[ ||Y(t+tau) - Y(t)||^2 ] at the
anchor t = T/2, which for multiplicative noise scales like tau (Hoelder 1/2
paths).  Halving tau should therefore halve the mean squared increment; the
deterministic sigma=0 control run decays like tau^2 instead (ratio ~ 1/4)."""

import numpy as np

from sacpde.harness import ExperimentPlan, increment_study

plan = ExperimentPlan(
    kind="increments",
    solver="spectral",
    spectral_modes=64,
    d=1,
    R=2 * np.pi,
    T=0.25,
    j_fine=1024,
    taus=(1.0 / 16, 1.0 / 32, 1.0 / 64),
    sigma="sine",
    sigma_amplitude=0.5,
    x0="cos",
    seed=3,
    n_paths=64,
)

report = increment_study(plan).report

print("      tau       E||increment||^2    ratio to previous")
prev = None
for entry in report["taus"]:
    mean = entry["mean_sq_l2"]["mean"]
    ratio = "" if prev is None else "%8.3f" % (mean / prev)
    print("%9.5f  %18.6e  %s" % (entry["tau"], mean, ratio))
    prev = mean

print()
print("noise ratios (expect ~0.5):      ",
      ["%.3f" % r["ratio"] for r in report["ratios"]])
print("sigma=0 control (expect ~0.25):  ",
      ["%.3f" % r["ratio"] for r in report["control"]["ratios"]])
