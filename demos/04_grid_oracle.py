"""
Brute-force oracle and measure-zero scaling
===========================================

The grid oracle never looks at the constraint analysis: it maps every
grid state through the operator and compares raw reduced matrices
directly.  Two things fall out.  The flagged set matches the analytic
classification, and its fraction of the grid shrinks as the grid
refines -- like 1/n for a circle, 1/n^2 for a point, never leveling off.
No operator masks a set of positive measure.
"""

import numpy as np

from qmask import (
    AngleState,
    GeneralLinearOp,
    GridSpec,
    MaskerParams,
    agreement_report,
    build_masker,
    default_kappa,
    grid_scan,
    masked_fraction_scaling,
)

anchor = AngleState(np.pi / 3, np.pi / 4)
circle_op = build_masker(MaskerParams(np.pi / 4, np.pi / 4))
point_op = GeneralLinearOp(1, 0, 0, 1, 0, 0, 0, 0)

grid = GridSpec(nx=200, ny=400)
hits = grid_scan(circle_op, anchor, grid, tol=default_kappa(circle_op) * grid.spacing)
print(f"oracle on a 200x400 grid flags {len(hits)} of {grid.nx * grid.ny} states")

report = agreement_report(circle_op, anchor, grid)
print(f"agreement with the analytic classification: {report['agreement']} "
      f"(max distance to class {report['max_distance_to_class']:.4f}, "
      f"band bound {report['band_bound']:.4f})")

print("\nmasked fraction vs resolution (tolerance tied to grid spacing):")
print(f"{'n':>6s} {'circle-class':>14s} {'point-class':>14s}")
circle_rows = masked_fraction_scaling(circle_op, anchor, [50, 100, 200, 400])
point_rows = masked_fraction_scaling(point_op, AngleState(1.2, 2.0), [50, 100, 200, 400])
for (n, fc), (_, fp) in zip(circle_rows, point_rows):
    print(f"{n:6d} {fc:14.6f} {fp:14.6f}")

ratios_c = [b / a for (_, a), (_, b) in zip(circle_rows, circle_rows[1:])]
ratios_p = [b / a for (_, a), (_, b) in zip(point_rows, point_rows[1:])]
print(f"\nper-doubling ratios, circle: {[f'{r:.3f}' for r in ratios_c]} (a curve halves)")
print(f"per-doubling ratios, point:  {[f'{r:.3f}' for r in ratios_p]} (a point quarters)")
