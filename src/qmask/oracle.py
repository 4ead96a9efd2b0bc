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

Every node's deviation is computed by :class:`_NodeDeviations`, set up once
per call: the :func:`unit_scaled` matrix, the anchor's entries and the
trig of each axis.  It works through blocks of about ``_BLOCK_NODES``
nodes, so it needs little memory beyond its output, and takes the
Frobenius distances from the entries with
:func:`qmask.linalg.frobenius_distances`, as ``masking.verify_mask`` does.
:func:`grid_deviations` runs it on every node and is the dense reference.

:func:`grid_flags` gives the same flags from a fraction of the nodes.  By
the paper's first theorem no nonzero operator masks a set of nonzero
measure, so almost every node lies far from the masked set.  The grid is
cut into cells of nodes, coarse to fine (``_CELL_SIZES``, 16 x 16 then
4 x 4).  Each cell is evaluated once, at a centre node, and skipped when
dev(centre) - L * r > tol, r being the cell's angle-space radius; a cell
not skipped is split into the cells of the next size, and the nodes of
the finest cells still live are evaluated.  A cell lies inside its
parent, so a cell that can hold a flagged node is never skipped at any
level.  That is safe with L = |M^dagger M|_F / 2, half the Frobenius
norm of the 2x2 Gram matrix of M:

* the deviation is Lipschitz in the Bloch point with constant L.  With
  rho(p) = (1 + p . sigma)/2, rho(p) - rho(q) = |p - q| (u u^dagger -
  v v^dagger)/2 for an orthonormal basis u, v of C^2.  With a = M u and
  b = M v, rho_A(p) - rho_A(q) = |p - q| (P - Q)/2, where P = Tr_B(a a^dagger)
  and Q = Tr_B(b b^dagger) are positive semidefinite with traces |a|^2 and
  |b|^2.  So |P - Q|_F^2 <= tr P^2 + tr Q^2 <= |a|^4 + |b|^4, and |a|^2 and
  |b|^2 are the diagonal of M^dagger M in the basis u, v, so their squares
  sum to at most |M^dagger M|_F^2.  The difference is at most L |p - q|;
  likewise for rho_B;
* the Bloch distance |p - q| is at most the angle-space distance, since
  ds^2 = dx^2 + sin^2 x dy^2.

L = sqrt(sigma_1^4 + sigma_2^4)/2 in the singular values of M, at most
sigma_1^2 / sqrt(2) and at most half the operator scale |M|_F^2.  It is
sharp: for a masker L = 1/sqrt(2), and pairs of nearby points reach
slopes above 0.99 L.

Each radius carries an allowance ``_ROUNDING`` for rounding, so a
skipped cell clears tol by 2**-40 L.  M is 4x2 with at most two singular
values, so |M^dagger M|_F >= tr(M^dagger M)/sqrt(2) and L is at least
the operator scale over 2 sqrt(2) and the allowance at least 2**-42 times
the scale: still far more than the few ulps of the scale by which a
computed deviation, or L itself, can be off.  The flags are those of the
dense pass exactly, at any tolerance.

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

from .analysis import GeneralLinearOp, apply_matrix, operator_scale, unit_scaled
from .bloch import AngleState
from .errors import InvalidInputError, check_positive_finite
from .linalg import frobenius_distances, reduced_entries

DEFAULT_REGION = ((0.0, float(np.pi)), (0.0, float(2.0 * np.pi)))

_BLOCK_NODES = 8192  # ~1 kB of temporaries per node, so ~8 MB a block
# Nodes along each side of the pruning cells, coarse to fine; each size divides the one before.
_CELL_SIZES = (16, 4)
# Allowance, in radians of cell radius, for the rounding of a cell's bound: L * 2**-40 is at least
# 2**-42 times the operator scale, and the deviations are exact to a few ulps of the scale.
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

    def cells(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The centre nodes of the size x size cells, as x and y indices, and each cell's radius.

        Cell (a, b) holds the nodes size*a ... size*a + size - 1 along x and
        likewise along y, cut at the grid's edge; its centre is its node
        (size - 1) // 2 along each axis, or its last one in a cell cut
        shorter.  The radius, shape (cells along x, cells along y), is the
        largest angle-space distance from the centre to a node of the cell,
        plus ``_ROUNDING`` for the rounding of the bounds it enters.
        """
        centres, reach = [], []
        for axis in self.axes():
            starts = np.arange(0, axis.size, size)
            c = np.minimum(starts + (size - 1) // 2, axis.size - 1)
            centres.append(c)
            reach.append(np.maximum.reduceat(np.abs(axis - axis[c.repeat(size)[: axis.size]]), starts))
        return centres[0], centres[1], np.hypot(reach[0][:, None], reach[1]) + _ROUNDING

    def split(self, a: np.ndarray, b: np.ndarray, size: int, fine: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The fine x fine cells that make up the size x size cells (a[k], b[k]): their nodes when fine is 1.

        ``fine`` divides ``size``.  The x and y indices come cell by cell, x-major
        within each cell, cut at the grid's edge.
        """
        k = size // fine
        offsets = np.arange(k)
        sub_a, sub_b = np.broadcast_arrays(k * a[:, None, None] + offsets[:, None], k * b[:, None, None] + offsets)
        inside = (sub_a < -(-self.nx // fine)) & (sub_b < -(-self.ny // fine))
        return sub_a[inside], sub_b[inside]

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened x and y coordinates of all nx*ny grid nodes, x-major."""
        gx, gy = np.meshgrid(*self.axes(), indexing="ij")
        return gx.ravel(), gy.ravel()


class _NodeDeviations:
    """Deviations at grid nodes (xs[i], ys[j]) on the :func:`unit_scaled` matrix ``m``: 4**e times each
    value is the node's deviation.

    The one place a node's deviation is computed.  The matrix, the anchor's
    entries and the trig of each axis are set up once, for one call of
    :func:`grid_flags` or :func:`grid_deviations`; the nodes of each call go
    through in blocks of ``_BLOCK_NODES``.  The amplitudes repeat
    :func:`apply_matrix`'s operations in its operand order (where numpy fuses
    complex products, swapped operands round differently), amplitude-major,
    so every loop runs along the nodes.
    """

    def __init__(self, op: GeneralLinearOp, anchor: AngleState, grid: GridSpec):
        self.m, self.e = unit_scaled(op)
        self._anchor_entries = reduced_entries(apply_matrix(self.m, anchor.x, anchor.y))[:, None]
        xs, ys = grid.axes()
        self._cos_x, self._sin_x, self._phase_y = np.cos(xs / 2.0), np.sin(xs / 2.0), np.exp(1j * ys)

    def __call__(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        m = self.m
        dev = np.empty(i.size)
        for k in range(0, i.size, _BLOCK_NODES):
            ib, jb = i[k : k + _BLOCK_NODES], j[k : k + _BLOCK_NODES]
            psi = np.empty((ib.size, 4), dtype=complex)
            np.add(self._cos_x[ib] * m[:, 0, None], (self._phase_y[jb] * self._sin_x[ib]) * m[:, 1, None], out=psi.T)
            d = reduced_entries(psi).T - self._anchor_entries
            frobenius_distances(d).max(axis=0, out=dev[k : k + _BLOCK_NODES])
        return dev


def grid_deviations(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec):
    """Per-node deviation of the raw reduced pair from the anchor's, at every node: the dense reference.

    Returns dev flattened over the grid in :meth:`GridSpec.points` order,
    the larger of the two Frobenius distances.  The anchor itself is
    evaluated exactly, not snapped to the grid.  The distances are computed
    from the :func:`unit_scaled` matrix and scaled back exactly, so only
    distances outside the float range over- or underflow.
    """
    deviations = _NodeDeviations(op, anchor, grid)
    dev = deviations(*np.indices((grid.nx, grid.ny), dtype=np.int32).reshape(2, -1))
    return np.ldexp(dev, 2 * deviations.e, out=dev)


def grid_flags(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec, tol: float) -> np.ndarray:
    """``grid_deviations(op, anchor, grid) <= tol`` exactly, from the cells that can hold a flagged node.

    The cells of each size in ``_CELL_SIZES`` are evaluated at their centres
    (:meth:`GridSpec.cells`), the 16 x 16 cells first.  A cell is skipped when
    dev(centre) - L * radius > tol, with L = |M^dagger M|_F / 2 (see the
    module docstring); the others are split (:meth:`GridSpec.split`) into
    the cells of the next size, or at the last size into their nodes, which
    are then evaluated in one batch.  Raises InvalidInputError when the
    operator's squared norm over- or underflows.
    """
    operator_scale(op)  # first, so an operator whose squared norm over- or underflows raises
    deviations = _NodeDeviations(op, anchor, grid)
    lipschitz = np.linalg.norm(deviations.m.conj().T @ deviations.m) / 2
    sizes = _CELL_SIZES + (1,)
    a, b = np.indices((-(-grid.nx // sizes[0]), -(-grid.ny // sizes[0]))).reshape(2, -1)
    for size, fine in zip(sizes, sizes[1:]):
        ci, cj, radius = grid.cells(size)
        bound = deviations(ci[a], cj[b]) - lipschitz * radius[a, b]
        live = ~(np.ldexp(bound, 2 * deviations.e) > tol)
        a, b = grid.split(a[live], b[live], size, fine)
    flags = np.zeros((grid.nx, grid.ny), dtype=bool)
    flags[a, b] = np.ldexp(deviations(a, b), 2 * deviations.e) <= tol
    return flags.ravel()


def grid_scan(
    op: GeneralLinearOp, anchor: AngleState, grid: GridSpec, tol: float
) -> list[AngleState]:
    """All grid states whose raw reduced pair matches the anchor's within tol, a positive finite number."""
    check_positive_finite(tol, f"tol={tol}")
    i, j = np.divmod(np.flatnonzero(grid_flags(op, anchor, grid, tol)), grid.ny)
    xs, ys = grid.axes()
    return [AngleState(float(x), float(y)) for x, y in zip(xs[i], ys[j])]


def default_kappa(op: GeneralLinearOp) -> float:
    """Default spacing-to-tolerance factor, 2x the operator scale.

    The deviation function is Lipschitz in the Bloch point with constant
    at most half the operator scale (see the module docstring), so with
    tol = kappa * h every grid node within one spacing of the true masked
    set is flagged, with at least 4x slack.
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
