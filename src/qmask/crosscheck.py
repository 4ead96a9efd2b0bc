"""Agreement check between the grid oracle and the analytic classification.

The oracle module stays independent of the constraint machinery, so the
comparison between the two lives here.  Agreement holds when

  * every grid node within one grid spacing of the classified set is
    flagged by the oracle (the spacing-tied tolerance guarantees this
    through the Lipschitz bound), and
  * every flagged node lies inside the tolerance band around the set,
    whose width follows from the constraint stack's singular values and
    the class's transversality to the sphere.  A single point whose stack
    has rank below three is a tangent cut, so there the band is the square
    root of twice the plane tolerance.

The flags come from :func:`qmask.oracle.grid_flags`, and distances to the
class are taken only where the two tests need them: at the flagged nodes,
and at the near nodes, those :meth:`qmask.oracle.GridSpec.live_nodes`
accepts or leaves undecided for the value class_distance(centre), the
slope 1 and one spacing as threshold.  The distance to a set is
1-Lipschitz in the Bloch point, and a cell's radius is at least the Bloch
distance from its centre to each of its nodes, so no node within one
spacing of the class is skipped.  The nodes of an accepted cell join the
near ones too; only a cell whose radius is under one spacing can be
accepted, such as an edge cell one node wide at a pole.  Both take their
Bloch points from
:func:`node_points`: the sine and cosine of each axis of the grid's
coordinates once per report, not four per node.  The coordinates and the
cell tables are the grid's own fields, made when the grid is, so a report
makes neither.
"""

from __future__ import annotations

import numpy as np

from .analysis import (
    RANK_TOL,
    Circle,
    GeneralLinearOp,
    PointPair,
    SinglePoint,
    class_distance,
    constraint_planes,
    maskable_set,
)
from .bloch import AngleState, trig_points
from .linalg import ENTRY_WEIGHTS
from .oracle import GridSpec, default_kappa, grid_flags


def node_points(grid: GridSpec):
    """The function (i, j) -> ``bloch_points(grid.xs[i], grid.ys[j])`` at grid nodes, gathering the sines and
    cosines of each axis, taken once here, into :func:`qmask.bloch.trig_points`."""
    sin_x, cos_x, cos_y, sin_y = np.sin(grid.xs), np.cos(grid.xs), np.cos(grid.ys), np.sin(grid.ys)
    return lambda i, j: trig_points(sin_x[i], cos_x[i], cos_y[j], sin_y[j])


def agreement_report(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec) -> dict:
    """Scan the grid and compare against the classified maskable set."""
    mask_class = maskable_set(op, anchor)
    tol = default_kappa(op) * grid.spacing

    flagged = grid_flags(op, anchor, grid, tol)
    points = node_points(grid)
    seen = flagged.copy()
    for near in grid.live_nodes(lambda i, j: class_distance(mask_class, points(i, j)), 1.0, grid.spacing):
        seen.reshape(grid.nx, grid.ny)[near] = True
    nodes = np.flatnonzero(seen)
    i, j = np.divmod(nodes, grid.ny)
    dist = class_distance(mask_class, points(i, j))
    hit = flagged[nodes]

    complete = bool(np.all(hit[dist <= grid.spacing * (1 - 1e-9)]))

    weighted = constraint_planes(op.matrix)[0] * ENTRY_WEIGHTS[:, None]
    svals = np.linalg.svd(weighted, compute_uv=False)
    if isinstance(mask_class, Circle):
        rank = 1
        trans = float(np.sqrt(1.0 + 4.0 / max(mask_class.circle.radius, 1e-3) ** 2))
    elif isinstance(mask_class, PointPair):
        rank = 2
        # the pair is the anchored line's two crossings: half its chord is |p0 . d|
        half_chord = float(np.linalg.norm(mask_class.p1 - mask_class.p2)) / 2.0
        trans = 1.0 + 1.0 / max(half_chord, 1e-3)
    else:
        rank = np.count_nonzero(svals > RANK_TOL * svals[0])
        trans = 1.0
    band = np.sqrt(2.0) * tol / svals[rank - 1] * trans
    if isinstance(mask_class, SinglePoint) and rank < 3:
        # the anchored cut is tangent at p0, so a flagged p has |p - p0|^2 / 2 = 1 - p . p0 <= band
        band = np.sqrt(2.0 * band)
    outer = grid.spacing + band
    max_dist = float(dist[hit].max()) if hit.any() else 0.0
    sound = max_dist <= outer

    return {
        "resolution": grid.nx,
        "tolerance": float(tol),
        "flagged": int(np.count_nonzero(flagged)),
        "max_distance_to_class": max_dist,
        "band_bound": float(outer),
        "agreement": "OK" if (complete and sound) else "MISMATCH",
    }
