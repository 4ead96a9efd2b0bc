"""Brute-force grid verification of masked sets, independent of the analysis path.

Membership here is decided by definition alone: map each grid state
through the operator, trace out each qubit, and compare the raw reduced
pair against the anchor's in Frobenius norm.  Nothing in this
module calls the constraint extraction or the classifier -- that
independence is the point, so the two paths cross-validate each other.
The analysis's closed-form planes and the oracle's reduced-state kernel
:func:`qmask.linalg.reduced_entries` read one table, ``ENTRY_PAIRS``, of
which amplitude products make each entry.  The tests check each against a
reference that does not use the table: the kernel bit for bit against
``einsum``, the planes exactly against rational arithmetic on dyadic
operators.

:func:`_unit_deviations` is the one place a node's deviation is
computed.  It takes the trig once per axis, works through blocks of
about ``_BLOCK_NODES`` nodes, so it needs little memory beyond its
output, and takes the Frobenius distances from the entries with
:func:`qmask.linalg.frobenius_distances`, as ``masking.verify_mask`` does.
:func:`grid_deviations` runs it on every node and is the dense reference.

:func:`grid_flags` gives the same flags from a fraction of the nodes.  By
the paper's first theorem no nonzero operator masks a set of nonzero
measure, so almost every node lies far from the masked set.  The grid is
cut into ``_CELL`` x ``_CELL`` cells of nodes, each evaluated once, at a
centre node, and a cell is skipped when dev(centre) - L * r > tol, r being
the cell's angle-space radius.  That is safe with L = operator_scale(op),
the squared Frobenius norm of M:

* the deviation is Lipschitz in the Bloch point with constant L.  With
  rho(p) = (1 + p . sigma)/2, rho_A(p) - rho_A(q) = Tr_B(M X M^dagger) for
  X = (p - q) . sigma/2, and |X|_F = |p - q|/sqrt(2).  The partial trace
  over one qubit costs at most a factor sqrt(2) in Frobenius norm, so the
  difference is at most |M|_2^2 |p - q| <= L |p - q|; likewise for rho_B;
* the Bloch distance |p - q| is at most the angle-space distance, since
  ds^2 = dx^2 + sin^2 x dy^2.

Each radius carries an allowance ``_ROUNDING`` for rounding, so a
skipped cell clears tol by 2**-40 times the scale, far more than the few
ulps of the scale by which a computed deviation can be off: the flags are
those of the dense pass exactly, at any tolerance.

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

import math
from dataclasses import dataclass

import numpy as np

from .analysis import GeneralLinearOp, apply_matrix, operator_scale, unit_scaled
from .bloch import AngleState
from .errors import InvalidInputError, check_positive_finite
from .linalg import frobenius_distances, reduced_entries

DEFAULT_REGION = ((0.0, float(np.pi)), (0.0, float(2.0 * np.pi)))

_BLOCK_NODES = 8192  # ~1 kB of temporaries per node, so ~8 MB a block
_CELL = 4  # nodes along each side of a pruning cell
# Allowance, in units of the operator scale (or of the unit sphere), for the
# rounding of a cell's bound; the deviations are exact to a few ulps of the scale.
_ROUNDING = 2.0**-40


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

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The centre nodes of the _CELL x _CELL cells, as x and y indices, and each cell's radius.

        Cell (a, b) holds the nodes _CELL*a ... _CELL*a + _CELL - 1 along x and
        likewise along y, cut at the grid's edge; its centre is its second
        node along each axis (its only one in a cell one node wide).  The
        radius, shape (cells along x, cells along y), is the largest
        angle-space distance from the centre to a node of the cell, plus
        ``_ROUNDING`` for the rounding of the bounds it enters.
        """
        centres, reach = [], []
        for axis in self.axes():
            starts = np.arange(0, axis.size, _CELL)
            c = np.minimum(starts + 1, axis.size - 1)
            centres.append(c)
            reach.append(np.maximum.reduceat(np.abs(axis - axis[c.repeat(_CELL)[: axis.size]]), starts))
        return centres[0], centres[1], np.hypot(reach[0][:, None], reach[1]) + _ROUNDING

    def cell_mask(self, cells: np.ndarray) -> np.ndarray:
        """The (nx, ny) node mask of the cells where the boolean ``cells``, shaped as :meth:`cells`' radius, holds."""
        return cells.repeat(_CELL, 0).repeat(_CELL, 1)[: self.nx, : self.ny]

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened x and y coordinates of all nx*ny grid nodes, x-major."""
        gx, gy = np.meshgrid(*self.axes(), indexing="ij")
        return gx.ravel(), gy.ravel()


def _unit_deviations(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec, i: np.ndarray, j: np.ndarray):
    """Deviations at the grid nodes (xs[i], ys[j]) on the :func:`unit_scaled` matrix, and its e.

    The one place a node's deviation is computed: 4**e times each value is the
    node's deviation.  The trig is taken once per axis and gathered, and the
    nodes go through in blocks of ``_BLOCK_NODES``.  The amplitudes repeat
    :func:`apply_matrix`'s operations in its operand order (where numpy fuses
    complex products, swapped operands round differently), amplitude-major,
    so every loop runs along the nodes.
    """
    m, e = unit_scaled(op)
    anchor_entries = reduced_entries(apply_matrix(m, anchor.x, anchor.y))[:, None]
    xs, ys = grid.axes()
    cos_x, sin_x, phase_y = np.cos(xs / 2.0), np.sin(xs / 2.0), np.exp(1j * ys)
    dev = np.empty(i.size)
    for k in range(0, i.size, _BLOCK_NODES):
        ib, jb = i[k : k + _BLOCK_NODES], j[k : k + _BLOCK_NODES]
        psi = np.empty((ib.size, 4), dtype=complex)
        np.add(cos_x[ib] * m[:, 0, None], (phase_y[jb] * sin_x[ib]) * m[:, 1, None], out=psi.T)
        d = reduced_entries(psi).T - anchor_entries
        frobenius_distances(d).max(axis=0, out=dev[k : k + _BLOCK_NODES])
    return dev, e


def grid_deviations(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec):
    """Per-node deviation of the raw reduced pair from the anchor's, at every node: the dense reference.

    Returns dev flattened over the grid in :meth:`GridSpec.points` order,
    the larger of the two Frobenius distances.  The anchor itself is
    evaluated exactly, not snapped to the grid.  The distances are computed
    from the :func:`unit_scaled` matrix and scaled back exactly, so only
    distances outside the float range over- or underflow.
    """
    i, j = np.indices((grid.nx, grid.ny), dtype=np.int32).reshape(2, -1)
    dev, e = _unit_deviations(op, anchor, grid, i, j)
    return np.ldexp(dev, 2 * e, out=dev)


def grid_flags(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec, tol: float) -> np.ndarray:
    """``grid_deviations(op, anchor, grid) <= tol`` exactly, from the cells that can hold a flagged node.

    Each cell of :meth:`GridSpec.cells` is evaluated at its centre and skipped
    when dev(centre) - L * radius > tol, with L = :func:`operator_scale` (see
    the module docstring); the nodes of the other cells are evaluated in one
    batch.  Raises InvalidInputError when the operator's squared norm over- or
    underflows.
    """
    scale = operator_scale(op)
    ci, cj, radius = grid.cells()
    centre, e = _unit_deviations(op, anchor, grid, ci.repeat(cj.size), np.tile(cj, ci.size))
    bound = centre.reshape(radius.shape) - math.ldexp(scale, -2 * e) * radius
    i, j = np.nonzero(grid.cell_mask(~(np.ldexp(bound, 2 * e) > tol)))
    dev, e = _unit_deviations(op, anchor, grid, i, j)
    flags = np.zeros((grid.nx, grid.ny), dtype=bool)
    flags[i, j] = np.ldexp(dev, 2 * e, out=dev) <= tol
    return flags.ravel()


def grid_scan(
    op: GeneralLinearOp, anchor: AngleState, grid: GridSpec, tol: float
) -> list[AngleState]:
    """All grid states whose raw reduced pair matches the anchor's within tol, a positive finite number."""
    check_positive_finite(tol, f"tol={tol}")
    i, j = np.nonzero(grid_flags(op, anchor, grid, tol).reshape(grid.nx, grid.ny))
    xs, ys = grid.axes()
    return [AngleState(float(x), float(y)) for x, y in zip(xs[i], ys[j])]


def default_kappa(op: GeneralLinearOp) -> float:
    """Default spacing-to-tolerance factor, 2x the operator scale.

    The deviation function is Lipschitz in the Bloch point with constant
    at most the operator scale (see the module docstring), so with
    tol = kappa * h every grid node within one spacing of the true masked
    set is flagged, with 2x slack.
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
        flags = grid_flags(op, anchor, grid, kappa * grid.spacing)
        fraction = float(np.count_nonzero(flags)) / flags.size
        out.append((n, fraction))
    return out
