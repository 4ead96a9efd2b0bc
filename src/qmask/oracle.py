"""Brute-force grid verification of masked sets, independent of the analysis path.

Membership here is decided by definition alone: map each grid state
through the operator, trace out each qubit, and compare the raw reduced
pair against the anchor's in Frobenius norm.  Nothing in this
module calls the constraint extraction or the classifier -- that
independence is the point, so the two paths cross-validate each other.
The analysis builds its planes in closed form, without the oracle's
reduced-state kernel :func:`qmask.linalg.reduced_entries`, so the
cross-check covers that kernel too.

:func:`grid_deviations` works through blocks of whole x-rows of about
``_BLOCK_NODES`` nodes, so it needs little memory beyond its output, and
takes the Frobenius distances from the entries with
:func:`qmask.linalg.frobenius_distances`, as ``masking.verify_mask`` does.

The grid tolerance is tied to the spacing (tol = kappa * h) so the
discrete masked set converges onto the continuum set as the grid is
refined; with a fixed tolerance the masked fraction would freeze
instead of shrinking.  For a set that is genuinely a curve the fraction
then decays like h (halves per resolution doubling), for an isolated
point like h^2 (quarters), and for no nonzero operator does any
neighborhood keep a fraction bounded away from zero.

The reported fractions are plain counts over the (x, y) angle
rectangle, not sphere-area measures: no sin(x) Jacobian is applied.
That distinction cannot move a set between zero and nonzero measure,
which is all these scans are meant to probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import GeneralLinearOp, operator_scale, unit_scaled
from .bloch import AngleState
from .errors import InvalidInputError, check_positive_finite
from .linalg import frobenius_distances, reduced_entries

DEFAULT_REGION = ((0.0, float(np.pi)), (0.0, float(2.0 * np.pi)))

_BLOCK_NODES = 8192  # ~1 kB of temporaries per node, so ~8 MB a block


@dataclass(frozen=True)
class GridSpec:
    """A rectangular (x, y) evaluation grid.

    x runs through ``nx`` points including both region endpoints; y runs
    through ``ny`` points with the upper endpoint excluded (the default
    region is periodic in y).
    """

    nx: int
    ny: int
    region: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_REGION

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise InvalidInputError("grid needs at least 2 points per axis")
        (x0, x1), (y0, y1) = self.region
        if not (x1 > x0 and y1 > y0):
            raise InvalidInputError("grid region must have positive extent")

    @property
    def spacing(self) -> float:
        """The coarser of the two axis spacings."""
        (x0, x1), (y0, y1) = self.region
        return max((x1 - x0) / (self.nx - 1), (y1 - y0) / self.ny)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The nx x coordinates and the ny y coordinates of the grid."""
        (x0, x1), (y0, y1) = self.region
        return np.linspace(x0, x1, self.nx), np.linspace(y0, y1, self.ny, endpoint=False)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened x and y coordinates of all nx*ny grid nodes, x-major."""
        gx, gy = np.meshgrid(*self.axes(), indexing="ij")
        return gx.ravel(), gy.ravel()


def grid_deviations(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec):
    """Per-node deviation of the raw reduced pair from the anchor's.

    Returns dev flattened over the grid in :meth:`GridSpec.points` order,
    the larger of the two Frobenius distances.  The anchor itself is
    evaluated exactly, not snapped to the grid.  The distances are computed
    at unit scale and scaled back exactly, so only distances outside the
    float range over- or underflow.
    """
    op, e = unit_scaled(op)
    anchor_entries = reduced_entries(op.apply(anchor.x, anchor.y))[:, None]
    xs, ys = grid.axes()
    dev = np.empty((grid.nx, grid.ny))
    rows = max(1, _BLOCK_NODES // grid.ny)
    for i in range(0, grid.nx, rows):
        psi = op.apply(xs[i : i + rows, None], ys)
        d = reduced_entries(psi.reshape(-1, 4)).T - anchor_entries
        frobenius_distances(d).max(axis=0, out=dev[i : i + rows].reshape(-1))
    return np.ldexp(dev, 2 * e, out=dev).ravel()


def grid_scan(
    op: GeneralLinearOp, anchor: AngleState, grid: GridSpec, tol: float
) -> list[AngleState]:
    """All grid states whose raw reduced pair matches the anchor's within tol, a positive finite number."""
    check_positive_finite(tol, f"tol={tol}")
    i, j = np.nonzero(grid_deviations(op, anchor, grid).reshape(grid.nx, grid.ny) <= tol)
    xs, ys = grid.axes()
    return [AngleState(float(x), float(y)) for x, y in zip(xs[i], ys[j])]


def default_kappa(op: GeneralLinearOp) -> float:
    """Default spacing-to-tolerance factor, 2x the operator scale.

    The deviation function is Lipschitz in the Bloch point with constant
    below twice the squared Frobenius norm of the operator, so with
    tol = kappa * h every grid node within one spacing of the true
    masked set is flagged.
    """
    return 2.0 * operator_scale(op)


def masked_fraction_scaling(
    op: GeneralLinearOp,
    anchor: AngleState,
    resolutions: list[int],
    kappa: float | None = None,
    region: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_REGION,
) -> list[tuple[int, float]]:
    """Masked-grid fraction at a ladder of resolutions with tol = kappa * h.

    Resolution n means an (n x 2n) grid over the region.  For operators
    whose masked set is a circle the fraction decays like 1/n, for
    point-like sets like 1/n^2; it never converges to a positive
    constant.
    """
    if kappa is None:
        kappa = default_kappa(op)
    check_positive_finite(kappa, f"kappa={kappa}")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise InvalidInputError("resolutions must be strictly increasing")
    out = []
    for n in resolutions:
        grid = GridSpec(nx=n, ny=2 * n, region=region)
        dev = grid_deviations(op, anchor, grid)
        fraction = float(np.count_nonzero(dev <= kappa * grid.spacing)) / dev.size
        out.append((n, fraction))
    return out
