"""Brute-force grid verification of masked sets, independent of the analysis path.

Membership here is decided by definition alone: map each grid state
through the operator, trace out each qubit, and compare the raw reduced
pair against the anchor's in Frobenius norm.  Nothing in this
module calls the constraint extraction or the classifier -- that
independence is the point, so the two paths cross-validate each other.
The analysis's closed-form planes and the oracle's reduced-state kernel
:func:`qmask.linalg.trace_into` read one table, ``ENTRY_PAIRS``, of which
amplitude products make each entry.  The tests check each against a
reference that does not use the table: the kernel bit for bit against
``einsum``, the planes exactly against rational arithmetic on dyadic
operators.

Every node's deviation is computed by :class:`_NodeDeviations`, with the
Frobenius distances of :func:`qmask.linalg.frobenius_distances`, as in
``masking.verify_mask``.  It runs the nodes of a call in blocks of at most
``_BLOCK_NODES``, every block in the buffers of one workspace taken once
per :func:`grid_flags` or :func:`grid_deviations` call: the amplitudes,
the kernel's products and sums, the entries and the distances.  The block
size does not change a deviation's bits.  :func:`grid_deviations` runs it
on every node and is the dense reference.

A :class:`GridSpec` makes its geometry once, at construction: the
coordinates of each axis and the cell tables of each size in
``_CELL_SIZES``, read-only fields that every walk, evaluator and report
reads, so no call on a grid remakes them.

:func:`grid_flags` gives the same flags from a fraction of the nodes.  By
the paper's first theorem no nonzero operator masks a set of nonzero
measure, so almost every node lies far from the masked set, and by its
second a masker's maskable set is a circle, so at tol = kappa * h its
flags fill a band around that circle.  It walks the cells with
:meth:`GridSpec.live_nodes` on the two bounds dev(centre) -+ L * r, r
being a cell's radius in Bloch distance: at most and at least the
deviation at every node of the cell, with L = |M^dagger M|_F / 2, half the
Frobenius norm of the 2x2 Gram matrix of M.  A cell whose lower bound
exceeds tol holds no flag and is skipped; a cell whose upper bound is at
most tol is all flags and is accepted whole, unevaluated; only the nodes
of the cells left undecided at the finest size are evaluated.

* The deviation is Lipschitz in the Bloch point with constant L.  With
  rho(p) = (1 + p . sigma)/2, rho(p) - rho(q) = |p - q| (u u^dagger -
  v v^dagger)/2 for an orthonormal basis u, v of C^2.  With a = M u and
  b = M v, rho_A(p) - rho_A(q) = |p - q| (P - Q)/2, where P = Tr_B(a a^dagger)
  and Q = Tr_B(b b^dagger) are positive semidefinite with traces |a|^2 and
  |b|^2.  So |P - Q|_F^2 <= tr P^2 + tr Q^2 <= |a|^4 + |b|^4, and |a|^2 and
  |b|^2 are the diagonal of M^dagger M in the basis u, v, so their squares
  sum to at most |M^dagger M|_F^2.  The difference is at most L |p - q|;
  likewise for rho_B.
* The cap lemma: a cell's radius hypot(reach_x, cap * reach_y) is at
  least the Bloch distance from its centre to each of its nodes, where
  cap is the largest |sin x| over the cell's x range.  The Bloch distance
  |p - q| is a chord, at most the length of any path on the sphere
  between the points, and the straight (x, y) segment from the centre to
  a node is one.  Under ds^2 = dx^2 + sin^2 x dy^2 its length is at most
  sqrt(dx^2 + cap^2 dy^2), since the segment's x stays in the cell's x
  range.  Near the poles cap is small, so a cell there is far smaller on
  the sphere than in angle space.

L = sqrt(sigma_1^4 + sigma_2^4)/2 in the singular values of M, at most
sigma_1^2 / sqrt(2) and at most half the operator scale |M|_F^2.  It is
sharp: for a masker L = 1/sqrt(2), and pairs of nearby points reach
slopes above 0.99 L.

Each radius carries an allowance ``_ROUNDING`` for rounding, so a
skipped cell clears tol by 2**-40 L, and an accepted cell stays under it
by as much: the allowance covers both sides alike.  M is 4x2 with at most
two singular values, so |M^dagger M|_F >= tr(M^dagger M)/sqrt(2) and L is
at least the operator scale over 2 sqrt(2) and the allowance at least
2**-42 times the scale: still far more than the few ulps of the scale by
which a computed deviation, cap, or L itself can be off.  The flags are
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

from dataclasses import dataclass, field
from math import inf, isfinite
from numbers import Integral

import numpy as np

from .analysis import GeneralLinearOp, apply_matrix, operator_scale
from .bloch import AngleState, AngleStates
from .errors import InvalidInputError, check_positive_finite
from .linalg import frobenius_distances, reduced_entries, trace_into

DEFAULT_REGION = ((0.0, float(np.pi)), (0.0, float(2.0 * np.pi)))

_BLOCK_NODES = 4096
# Rows of n floats in the workspace of blocks of n nodes: w0 m[:, 0] and w1 m[:, 1] (8 each, complex),
# cos(x/2), sin(x/2), e^{iy} and w1 (2 each, complex), the amplitude parts (8), the kernel's work (48),
# the entries (8) and the rho_A and rho_B distances (2): 720 bytes a node, ~2.9 MB at _BLOCK_NODES
_WORKSPACE_ROWS = 90
# Nodes along each side of the pruning cells, coarse to fine; each size divides the one before.
_CELL_SIZES = (16, 4)
# Allowance, in Bloch distance, for the rounding of a cell's two bounds (see the module docstring).
_ROUNDING = 2.0**-40


def _cell_table(xs: np.ndarray, ys: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """The centre nodes of the size x size cells of the grid on axes xs and ys, as x and y indices, each
    cell's reach along x and y, and each x-cell's cap.

    Cell (a, b) holds the nodes size*a ... size*a + size - 1 along x and
    likewise along y, cut at the grid's edge; its centre is its node
    (size - 1) // 2 along each axis, or its last one in a cell cut
    shorter.  Its reach along an axis is the largest distance from the
    centre to a node of the cell along it, and its cap the largest |sin x|
    over its x range: 1 where that range holds pi/2 + k pi, else the larger
    at its two ends.  Its radius hypot(reach_x, cap * reach_y) is at least
    the Bloch distance from the centre to each node of the cell (the cap
    lemma of the module docstring), and :meth:`GridSpec.live_nodes` adds
    ``_ROUNDING`` for the rounding of the bounds it enters.
    """
    centres, reach = [], []
    for axis in (xs, ys):
        starts = np.arange(0, axis.size, size)
        c = np.minimum(starts + (size - 1) // 2, axis.size - 1)
        centres.append(c)
        reach.append(np.maximum.reduceat(np.abs(axis - axis[c.repeat(size)[: axis.size]]), starts))
    starts = np.arange(0, xs.size, size)
    lo, hi = xs[starts], xs[np.minimum(starts + size, xs.size) - 1]
    # a peak of |sin x| at pi/2 + k pi in (lo, hi] changes the floor; one at lo is |sin lo| itself
    peak = np.floor((hi - np.pi / 2) / np.pi) != np.floor((lo - np.pi / 2) / np.pi)
    cap = np.where(peak, 1.0, np.maximum(np.abs(np.sin(lo)), np.abs(np.sin(hi))))
    return centres[0], centres[1], reach[0], reach[1], cap


@dataclass(frozen=True)
class GridSpec:
    """A rectangular (x, y) evaluation grid, with its geometry made once, at construction.

    x runs through ``nx`` points including both region endpoints; y runs
    through ``ny`` points with the upper endpoint excluded (the default
    region is periodic in y).  The region's extent along each axis must
    be positive and finite, and 8 * nx * ny bytes, the node indices of
    :func:`grid_deviations`, within the size numpy can give an array.  The
    read-only fields ``xs`` and ``ys`` are the nx x coordinates and the ny
    y coordinates, and ``cells`` holds the
    :func:`_cell_table` of each size in ``_CELL_SIZES``, in that order; like
    ``GeneralLinearOp.matrix`` they take no part in equality, hashing or
    ``repr``, which see ``nx``, ``ny`` and ``region`` only.  A pickle holds
    those three alone, and loading it builds the grid anew, read-only fields
    and all.
    """

    nx: int
    ny: int
    region: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_REGION
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    ys: np.ndarray = field(init=False, repr=False, compare=False)
    cells: tuple[tuple[np.ndarray, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.nx, Integral) and isinstance(self.ny, Integral)):
            raise InvalidInputError(f"grid sizes must be integers, got nx={self.nx!r}, ny={self.ny!r}")
        if self.nx < 2 or self.ny < 2:
            raise InvalidInputError("grid needs at least 2 points per axis")
        # the largest array a grid makes is grid_deviations' x-major node indices, 8 bytes a node
        if 8 * int(self.nx) * int(self.ny) > np.iinfo(np.intp).max:
            raise InvalidInputError(f"grid too large: nx={self.nx!r} by ny={self.ny!r} nodes exceed an array's size limit")
        (x0, x1), (y0, y1) = self.region
        # on Python floats, so numpy-scalar bounds cannot warn; an infinite or NaN bound gives no finite extent
        if not all(0.0 < extent < inf for extent in (float(x1) - float(x0), float(y1) - float(y0))):
            raise InvalidInputError("grid region must have finite bounds and a positive finite extent")
        xs, ys = np.linspace(x0, x1, self.nx), np.linspace(y0, y1, self.ny, endpoint=False)
        cells = tuple(_cell_table(xs, ys, size) for size in _CELL_SIZES)
        for array in (xs, ys, *sum(cells, ())):
            array.setflags(write=False)
        for name, value in ("xs", xs), ("ys", ys), ("cells", cells):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return GridSpec, (self.nx, self.ny, self.region)

    @property
    def spacing(self) -> float:
        """The coarser of the two axis spacings."""
        (x0, x1), (y0, y1) = self.region
        return max((x1 - x0) / (self.nx - 1), (y1 - y0) / self.ny)

    def split(self, a: np.ndarray, b: np.ndarray, size: int, fine: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The fine x fine cells that make up the size x size cells (a[k], b[k]): their nodes when fine is 1.

        ``fine`` divides ``size``.  The x and y indices come cell by cell, x-major
        within each cell, cut at the grid's edge.
        """
        if not a.size:  # most walks accept no cell, and this returns at a tenth of the cost
            return a, b
        k = size // fine
        da, db = np.divmod(np.arange(k * k), k)  # each sub-cell's offsets, x-major
        sub_a, sub_b = (k * a[:, None] + da).ravel(), (k * b[:, None] + db).ravel()
        inside = (sub_a < -(-self.nx // fine)) & (sub_b < -(-self.ny // fine))
        return sub_a[inside], sub_b[inside]

    def live_nodes(self, value, slope: float, threshold: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The x and y indices of the nodes a coarse-to-fine walk leaves undecided, and of those it accepts.

        The one place cells are walked.  ``value(i, j)`` is called at the
        centres (:attr:`cells`) of the undecided cells of each size in
        ``_CELL_SIZES``, from all cells of the first size; ``slope`` bounds
        how fast the value can change per unit of Bloch distance.  With r a
        cell's radius plus ``_ROUNDING``, a cell whose value - slope * r is
        greater than ``threshold`` is skipped (a NaN keeps it); one whose
        value + slope * r is at most ``threshold`` is accepted, all its nodes;
        each other is split (:meth:`split`) into the cells of the next size,
        or at the last into its nodes, the undecided ones.  Both come cell by
        cell.  If the value is ``slope``-Lipschitz in the Bloch point, no node
        whose value is at most ``threshold`` is skipped and no node whose
        value is greater is accepted, since a cell lies inside its parent.
        """
        sizes = _CELL_SIZES + (1,)
        a, b = np.indices((-(-self.nx // sizes[0]), -(-self.ny // sizes[0]))).reshape(2, -1)
        accepted = []
        for size, fine, (ci, cj, reach_x, reach_y, cap) in zip(sizes, sizes[1:], self.cells):
            centre = value(ci[a], cj[b])
            margin = slope * (np.hypot(reach_x[a], cap[a] * reach_y[b]) + _ROUNDING)
            accept = centre + margin <= threshold
            accepted.append(self.split(a[accept], b[accept], size))
            undecided = ~(accept | (centre - margin > threshold))
            a, b = self.split(a[undecided], b[undecided], size, fine)
        i, j = (np.concatenate(nodes) for nodes in zip(*accepted))
        return (a, b), (i, j)


class _NodeDeviations:
    """Deviations at grid nodes (xs[i], ys[j]) on the operator's ``unit`` matrix: 4**exponent times each
    value is the node's deviation.

    The one place a node's deviation is computed.  The anchor's entries, the
    trig of each axis and one workspace are set up once, for
    one call of :func:`grid_flags` or :func:`grid_deviations`; the nodes of
    each call go through in blocks of at most ``_BLOCK_NODES``, each computed
    in the buffers of that workspace: one allocation serves every block,
    where fresh temporaries for each would go back to the OS and fault in
    again.  The amplitudes repeat :func:`apply_matrix`'s operations in its
    operand order (where numpy fuses complex products, swapped operands round
    differently), amplitude-major, so every loop runs along the nodes.
    """

    def __init__(self, op: GeneralLinearOp, anchor: AngleState, grid: GridSpec):
        self._m = op.unit
        self._anchor_entries = reduced_entries(apply_matrix(self._m, anchor.x, anchor.y))[:, None]
        # complex, as the products would cast them in every block
        self._cos_x, self._sin_x = np.cos(grid.xs / 2.0).astype(complex), np.sin(grid.xs / 2.0).astype(complex)
        self._phase_y = np.exp(1j * grid.ys)
        self._workspace = np.empty(_WORKSPACE_ROWS * min(_BLOCK_NODES, grid.nx * grid.ny))

    def __call__(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        dev = np.empty(i.size)
        if not i.size:
            return dev
        n = -(-i.size // -(-i.size // _BLOCK_NODES))  # the nodes in equal blocks of at most _BLOCK_NODES
        workspace = self._workspace[: _WORKSPACE_ROWS * n]
        w0m, w1m = workspace[: 16 * n].view(complex).reshape(2, 4, n)
        cos_x, sin_x, phase_y, w1 = workspace[16 * n : 24 * n].view(complex).reshape(4, n)
        parts = workspace[24 * n : 32 * n].reshape(4, 2, n)
        work = workspace[32 * n : 80 * n].reshape(48, n)
        entries = workspace[80 * n : 88 * n].reshape(8, n)
        distances = workspace[88 * n :].reshape(2, n)
        for k in range(0, i.size, n):
            k = min(k, i.size - n)  # the last block ends at the last node
            # mode="clip" lets take write into its out unbuffered; every index is in range
            self._cos_x.take(i[k : k + n], out=cos_x, mode="clip")
            self._sin_x.take(i[k : k + n], out=sin_x, mode="clip")
            self._phase_y.take(j[k : k + n], out=phase_y, mode="clip")
            np.multiply(cos_x, self._m[:, 0, None], out=w0m)
            np.multiply(np.multiply(phase_y, sin_x, out=w1), self._m[:, 1, None], out=w1m)
            # the amplitudes as the kernel reads them: parts[l] holds the real, then the imaginary parts of psi[l]
            np.add(*(w.view(float).reshape(4, n, 2).transpose(0, 2, 1) for w in (w0m, w1m)), out=parts)
            trace_into(parts.reshape(8, n), entries, work)
            np.subtract(entries, self._anchor_entries, out=entries)
            frobenius_distances(entries, out=distances).max(axis=0, out=dev[k : k + n])
        return dev


def grid_deviations(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec):
    """Per-node deviation of the raw reduced pair from the anchor's, at every node: the dense reference.

    Returns dev flattened over the grid in x-major order,
    the larger of the two Frobenius distances.  The anchor itself is
    evaluated exactly, not snapped to the grid.  The distances are computed
    from the operator's ``unit`` matrix and scaled back exactly, so only
    distances outside the float range over- or underflow.
    """
    dev = _NodeDeviations(op, anchor, grid)(*np.indices((grid.nx, grid.ny), dtype=np.int32).reshape(2, -1))
    return np.ldexp(dev, 2 * op.exponent, out=dev)


def grid_flags(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec, tol: float) -> np.ndarray:
    """``grid_deviations(op, anchor, grid) <= tol`` exactly: True at the nodes :meth:`GridSpec.live_nodes`
    accepts, and the evaluated test at those it leaves undecided.

    The bounds and their L are those of the module docstring.  Raises InvalidInputError unless tol is a
    positive finite number, and when the operator's squared norm over- or underflows.
    """
    check_positive_finite(tol, f"tol={tol}")
    operator_scale(op)  # so an operator whose squared norm over- or underflows raises
    deviations, m, e = _NodeDeviations(op, anchor, grid), op.unit, op.exponent
    lipschitz = np.linalg.norm(m.conj().T @ m) / 2
    # An L * r that overflows is +inf: the lower bound is then -inf (or NaN, from an infinite deviation) and
    # the upper bound +inf, so the cell is split, as it should be.
    with np.errstate(over="ignore", invalid="ignore"):
        undecided, accepted = grid.live_nodes(
            lambda i, j: np.ldexp(deviations(i, j), 2 * e), np.ldexp(lipschitz, 2 * e), tol
        )
    flags = np.zeros((grid.nx, grid.ny), dtype=bool)
    flags[accepted] = True
    flags[undecided] = np.ldexp(deviations(*undecided), 2 * e) <= tol
    return flags.ravel()


def grid_scan(op: GeneralLinearOp, anchor: AngleState, grid: GridSpec, tol: float) -> AngleStates:
    """The grid states whose raw reduced pair matches the anchor's within tol, positive and finite, x-major."""
    i, j = np.divmod(np.flatnonzero(grid_flags(op, anchor, grid, tol)), grid.ny)
    return AngleStates(grid.xs[i], grid.ys[j])


def default_kappa(op: GeneralLinearOp) -> float:
    """Default spacing-to-tolerance factor, 2x the operator scale.

    The deviation function is Lipschitz in the Bloch point with constant
    at most half the operator scale (see the module docstring), so with
    tol = kappa * h every grid node within one spacing of the true masked
    set is flagged, with at least 4x slack.

    Raises InvalidInputError when 16x the scale overflows, as well as where
    :func:`operator_scale` does.  On any grid of the default region such a
    tol is at most 2 pi times the scale, and the crosscheck's band takes
    sqrt(2) times tol; 2 sqrt(2) pi < 16, so neither overflows.
    """
    scale = operator_scale(op)
    if not isfinite(16.0 * scale):
        raise InvalidInputError("operator too large for a spacing-tied tolerance: 16x its squared norm overflows")
    return 2.0 * scale


def masked_fraction_scaling(
    op: GeneralLinearOp, anchor: AngleState, resolutions: list[int], kappa: float | None = None
) -> list[tuple[int, float]]:
    """Masked-grid fraction at a ladder of resolutions with tol = kappa * h.

    Resolution n means an (n x 2n) grid over the default region.  For operators
    whose masked set is a circle the fraction decays like 1/n, for
    point-like sets like 1/n^2; it never converges to a positive
    constant.
    """
    if kappa is None:
        kappa = default_kappa(op)
    check_positive_finite(kappa, f"kappa={kappa}")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise InvalidInputError("resolutions must be strictly increasing")
    grids = [GridSpec(nx=n, ny=2 * n) for n in resolutions]
    for n, grid in zip(resolutions, grids):
        # kappa * h can over- or underflow where kappa does not; the error names the kappa the caller gave
        check_positive_finite(kappa * grid.spacing, f"kappa={kappa} times the spacing at resolution {n}")
    flags = (grid_flags(op, anchor, grid, kappa * grid.spacing) for grid in grids)
    return [(n, float(np.count_nonzero(f)) / f.size) for n, f in zip(resolutions, flags)]
