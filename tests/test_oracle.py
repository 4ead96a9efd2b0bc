import dataclasses
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from qmask import (
    AngleState,
    AngleStates,
    Circle,
    GeneralLinearOp,
    GridSpec,
    InvalidInputError,
    MaskerParams,
    PointPair,
    SinglePoint,
    agreement_report,
    bloch_points,
    build_masker,
    class_distance,
    default_kappa,
    grid_deviations,
    grid_flags,
    grid_scan,
    maskable_circle,
    maskable_set,
    masked_fraction_scaling,
    operator_scale,
    reduced_pair,
    sample_circle,
    verify_mask,
)
from qmask import crosscheck, oracle
from _helpers import (
    grid_points,
    identity_embedding,
    planted_product_op,
    random_op,
    random_params,
    random_state,
    rank_two_op,
    sphere_state,
)


def masker_op(alpha, theta):
    return build_masker(MaskerParams(alpha, theta))


def test_grid_spec_validation():
    with pytest.raises(InvalidInputError):
        GridSpec(1, 10)
    with pytest.raises(InvalidInputError):
        GridSpec(10, 10, region=((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(InvalidInputError, match="integers"):
        GridSpec(10.5, 20)
    for region in (((0.0, np.inf), (0.0, 1.0)), ((0.0, 1.0), (-np.inf, 1.0)), ((0.0, np.nan), (0.0, 1.0))):
        with pytest.raises(InvalidInputError, match="finite"):
            GridSpec(10, 10, region=region)
    assert GridSpec(np.int64(10), np.int64(20)).ys.size == 20
    # finite bounds whose extent overflows, also as numpy scalars, which must not warn
    op, anchor = random_op(np.random.default_rng(0)), AngleState(1.0, 1.0)
    for bound in (1e308, np.float64(1e308)):
        with pytest.raises(InvalidInputError, match="finite"):
            grid_flags(op, anchor, GridSpec(10, 20, region=((-bound, bound), (0.0, 1.0))), default_kappa(op))
    # a finite extent whose cell radii times L overflow: those cells stay live, without a warning
    grid = GridSpec(10, 20, region=((0.0, 1e308), (0.0, 1.0)))
    for tol in (1.0, 1e300):
        assert np.array_equal(grid_flags(op, anchor, grid, tol), grid_deviations(op, anchor, grid) <= tol)


@pytest.mark.parametrize("nx, ny", [(10**20, 400), (2**62, 3), (3, 10**20), (2**62, 2**62), (np.int64(2**62), 3)])
def test_grid_spec_rejects_a_size_numpy_cannot_represent(nx, ny):
    # 8 * nx * ny bytes of node indices past the largest array size: invalid input before any array is made,
    # where linspace or the cell tables raised numpy's own ValueError
    with pytest.raises(InvalidInputError, match="^grid too large: nx=.* exceed an array's size limit$"):
        GridSpec(nx, ny)


@pytest.mark.parametrize("n", [10**20, 2**62])
def test_fraction_ladder_rejects_a_resolution_numpy_cannot_represent(n):
    with pytest.raises(InvalidInputError, match=f"^grid too large: nx={n} by ny={2 * n} nodes"):
        masked_fraction_scaling(masker_op(1.1, 0.7), AngleState(1.0, 1.0), [2, n])


def test_grid_spec_points_layout():
    grid = GridSpec(3, 4, region=((0.0, 1.0), (0.0, 2.0)))
    xs, ys = grid_points(grid)
    assert xs.size == 12
    assert xs.max() == 1.0  # x includes both endpoints
    assert ys.max() == 1.5  # y excludes the upper endpoint


def test_grid_spec_axes_build_the_points():
    grid = GridSpec(5, 7, region=((0.2, 1.0), (0.5, 3.0)))
    xs, ys = grid.xs, grid.ys
    gx, gy = grid_points(grid)
    assert np.array_equal(gx, np.repeat(xs, 7)) and np.array_equal(gy, np.tile(ys, 5))
    points = bloch_points(xs[:, None], ys).reshape(-1, 3)
    flat = bloch_points(gx, gy)
    assert np.array_equal(points, flat) and points.strides == flat.strides


def point_deviations(op, anchor, xs, ys):
    """Deviations at the points (xs, ys) by definition: op.apply and |.|^2 Frobenius norms."""
    ra0, rb0 = reduced_pair(op.apply(anchor.x, anchor.y))
    rho_a, rho_b = reduced_pair(op.apply(xs, ys))
    dev_a = np.sqrt(np.sum(np.abs(rho_a - ra0) ** 2, axis=(1, 2)))
    dev_b = np.sqrt(np.sum(np.abs(rho_b - rb0) ** 2, axis=(1, 2)))
    return np.maximum(dev_a, dev_b)


def reference_deviations(op, anchor, grid):
    """Per-node deviations by definition, at the nodes of a meshgrid."""
    xs, ys = grid_points(grid)
    return xs, ys, point_deviations(op, anchor, xs, ys)


BLOCK_EDGE_GRIDS = [
    GridSpec(2, 3),  # smaller than one pruning cell along both axes
    GridSpec(3, 4),  # smaller than one block
    GridSpec(16, 48),  # whole 16 x 16 cells
    GridSpec(17, 33),  # cut one node past a 16-node edge along both axes
    GridSpec(128, 256),  # 32768 nodes, a whole number of blocks (eight of 4096)
    GridSpec(97, 203),
    GridSpec(3, 9000),  # rows longer than a block
    GridSpec(60, 90, region=((0.3, 0.9), (1.0, 2.5))),
]


def test_grid_spec_makes_its_geometry_once(monkeypatch):
    # building a grid makes both axes and one cell table per size; a report or a flag pass on a built
    # grid makes neither, where a report on 200 x 400 made 12 linspace calls and 4 cell tables
    linspaces, tables = [], []
    linspace, cell_table = np.linspace, oracle._cell_table
    monkeypatch.setattr(np, "linspace", lambda *args, **kw: linspaces.append(args) or linspace(*args, **kw))
    monkeypatch.setattr(oracle, "_cell_table", lambda xs, ys, size: tables.append(size) or cell_table(xs, ys, size))
    grid = GridSpec(200, 400)
    assert (len(linspaces), tables) == (2, list(oracle._CELL_SIZES))
    linspaces.clear(), tables.clear()
    op, anchor = masker_op(1.1, 0.7), AngleState(1.0, 1.0)
    agreement_report(op, anchor, grid)
    grid_flags(op, anchor, grid, default_kappa(op) * grid.spacing)
    grid_scan(op, anchor, grid, default_kappa(op) * grid.spacing)
    assert (linspaces, tables) == ([], [])


def _reference_cells(axis, size):
    """Each size-node cell's centre node along one axis, and its largest distance to a node of the cell."""
    centres, reach = [], []
    for start in range(0, axis.size, size):
        c = min(start + (size - 1) // 2, axis.size - 1)
        centres.append(c)
        reach.append(max(abs(axis[k] - axis[c]) for k in range(start, min(start + size, axis.size))))
    return np.array(centres), np.array(reach)


def _reference_caps(xs, size):
    """Each size-node x-cell's largest |sin x| over its x range [lo, hi]: 1 if pi/2 + k pi lies in it, else
    the larger at its ends."""
    caps = []
    for lo, hi in zip(xs[::size], [xs[min(k + size, xs.size) - 1] for k in range(0, xs.size, size)]):
        peak = np.pi / 2 + np.pi * np.ceil((lo - np.pi / 2) / np.pi) <= hi
        caps.append(1.0 if peak else max(abs(np.sin(lo)), abs(np.sin(hi))))
    return np.array(caps)


@pytest.mark.parametrize("grid", BLOCK_EDGE_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_grid_spec_fields_are_its_axes_and_cell_tables(grid):
    (x0, x1), (y0, y1) = grid.region
    xs, ys = np.linspace(x0, x1, grid.nx), np.linspace(y0, y1, grid.ny, endpoint=False)
    assert np.array_equal(grid.xs.view(np.int64), xs.view(np.int64))
    assert np.array_equal(grid.ys.view(np.int64), ys.view(np.int64)) and grid.ys[-1] < y1
    assert len(grid.cells) == len(oracle._CELL_SIZES)
    for size, (ci, cj, reach_x, reach_y, cap) in zip(oracle._CELL_SIZES, grid.cells):
        for got, want in zip((ci, reach_x, cj, reach_y), (*_reference_cells(xs, size), *_reference_cells(ys, size))):
            assert np.array_equal(got, want) and got.dtype == want.dtype
        # each x-cell's cap is its largest |sin x|: at most 1, and at least |sin x| anywhere in its x range
        want = _reference_caps(xs, size)
        assert cap.shape == want.shape and cap.dtype == want.dtype and np.abs(cap - want).max() <= 1e-15
        for c, lo, hi in zip(cap, xs[::size], xs[np.minimum(np.arange(0, xs.size, size) + size, xs.size) - 1]):
            assert np.abs(np.sin(np.linspace(lo, hi, 101))).max() <= c <= 1.0
    # read-only: no element, field or table can be written
    for array in (grid.xs, grid.ys, *sum(grid.cells, ())):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.xs = xs
    with pytest.raises(TypeError):
        grid.cells[0] = grid.cells[0]


def test_grid_spec_equality_hash_repr_and_replace_ignore_the_geometry():
    grid = GridSpec(5, 7, region=((0.2, 1.0), (0.5, 3.0)))
    assert [f.name for f in dataclasses.fields(GridSpec) if f.compare] == ["nx", "ny", "region"]
    assert repr(grid) == "GridSpec(nx=5, ny=7, region=((0.2, 1.0), (0.5, 3.0)))"
    assert grid == GridSpec(5, 7, region=((0.2, 1.0), (0.5, 3.0))) != GridSpec(5, 8, region=grid.region)
    assert hash(grid) == hash((5, 7, ((0.2, 1.0), (0.5, 3.0))))
    # replace builds a new grid, with the geometry of its own sizes
    wider = dataclasses.replace(grid, ny=9)
    assert wider == GridSpec(5, 9, region=grid.region) and wider.ys.size == 9 and wider.xs is not grid.xs
    assert np.array_equal(wider.ys, GridSpec(5, 9, region=grid.region).ys)


def test_a_pickle_round_trip_keeps_the_fields_read_only():
    # a loaded grid, and a loaded set of scanned states, is built anew: equal to the one pickled, with the
    # same arrays, none of them writeable, where the arrays came back writeable
    for grid in (GridSpec(17, 33), GridSpec(60, 90, region=((0.3, 0.9), (1.0, 2.5)))):
        back = pickle.loads(pickle.dumps(grid))
        assert back == grid and hash(back) == hash(grid) and repr(back) == repr(grid)
        arrays, loaded = ((g.xs, g.ys, *sum(g.cells, ())) for g in (grid, back))
        assert len(loaded) == len(arrays) and all(np.array_equal(a, b) for a, b in zip(arrays, loaded))
        assert not any(a.flags.writeable for a in loaded)
    op, anchor, grid = masker_op(1.1, 0.7), AngleState(1.0, 1.0), GridSpec(40, 80)
    states = grid_scan(op, anchor, grid, default_kappa(op) * grid.spacing)
    back = pickle.loads(pickle.dumps(states))
    assert type(back) is AngleStates and list(back) == list(states) and len(back) > 0
    assert np.array_equal(back.xs, states.xs) and np.array_equal(back.ys, states.ys)
    assert not (back.xs.flags.writeable or back.ys.flags.writeable)


@pytest.mark.parametrize("grid", BLOCK_EDGE_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_blocked_deviations_match_the_per_node_reference(grid):
    rng = np.random.default_rng(grid.nx * grid.ny)
    for op in (random_op(rng), masker_op(1.1, 0.7), random_op(rng, scale=30.0)):
        anchor = random_state(rng)
        xs, ys = grid_points(grid)
        dev = grid_deviations(op, anchor, grid)
        ref_xs, ref_ys, ref = reference_deviations(op, anchor, grid)
        assert np.array_equal(xs, ref_xs) and np.array_equal(ys, ref_ys)
        assert np.abs(dev - ref).max() <= 4 * np.finfo(float).eps * operator_scale(op)
        tol = default_kappa(op) * grid.spacing
        assert np.array_equal(dev <= tol, ref <= tol)


def test_block_size_does_not_change_the_deviations(monkeypatch):
    # a call's nodes go in equal blocks, the last overlapping the one before, so no node is computed in a
    # block of its own, where the distances' matrix product takes another path and can round differently:
    # on odd grids, whose node counts leave a single node over at most of these block sizes, the same bits
    rng = np.random.default_rng(8)
    for nx, ny in ((5, 9), (7, 11), (3, 17), (9, 13)):
        grid = GridSpec(nx, ny)
        for _ in range(5):
            op, anchor = random_op(rng), sphere_state(rng)
            ref = grid_deviations(op, anchor, grid)
            for block in (2, 4, 8, 11):
                monkeypatch.setattr(oracle, "_BLOCK_NODES", block)
                dev = grid_deviations(op, anchor, grid)
                assert np.array_equal(dev.view(np.int64), ref.view(np.int64)), (nx, ny, block)
            monkeypatch.undo()


def family_ops(rng):
    """One operator of each bench family: general, masker, rank-two and product form."""
    masker = build_masker(random_params(rng))
    return [random_op(rng), masker, rank_two_op(rng), planted_product_op(rng)[0]]


# an x range without pi/2 that ends near the pole, with edge cells cut along both axes
ACCEPT_GRIDS = [GridSpec(70, 130, region=((1.7, 3.1), (0.0, 6.0)))]


@pytest.mark.parametrize("grid", BLOCK_EDGE_GRIDS + ACCEPT_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_pruned_flags_equal_the_dense_flags(grid, monkeypatch):
    # a cell is skipped only when no node in it can be flagged, and accepted only when every node in it
    # is, whatever the tolerance and the operator's magnitude, so the flags are those of the dense pass
    # exactly; the deviations' 60% quantile as tolerance accepts whole 16 x 16 cells on the larger grids
    walks = []
    live_nodes = GridSpec.live_nodes
    monkeypatch.setattr(GridSpec, "live_nodes", lambda self, *args: walks.append(live_nodes(self, *args)) or walks[-1])
    rng = np.random.default_rng(grid.nx + grid.ny)
    for op in family_ops(rng):
        anchor = sphere_state(rng)
        for k in (1.0, 30.0, 2.0**400, 2.0**-400):
            scaled = GeneralLinearOp.from_matrix(k * op.matrix)
            dev = grid_deviations(scaled, anchor, grid)
            wide = np.quantile(dev, 0.6)
            for tol in (default_kappa(scaled) * grid.spacing, 1e-12 * operator_scale(scaled), np.finfo(float).max, wide):
                walks.clear()
                assert np.array_equal(grid_flags(scaled, anchor, grid, tol), dev <= tol), (k, tol)
            [(_, (ai, aj))] = walks  # the walk of the last tolerance, the quantile
            whole = np.count_nonzero(np.unique(ai // 16 * grid.ny + aj // 16, return_counts=True)[1] == 256)
            assert whole > 0 or grid.nx < 60, (k, whole)


def test_cells_cover_the_grid_within_their_radius():
    # an x range below pi/2, one from the pole and one across pi/2: a cell's radius hypot(reach_x, cap * reach_y)
    # is at least the Bloch distance from its centre to each of its nodes and at most their angle distance
    centres = {4: ([1, 5, 9, 13, 17, 21, 25, 29, 33, 37], [1, 5, 9, 13, 17, 21]), 16: ([7, 23, 39], [7, 22])}
    for region in (((0.3, 0.9), (1.0, 2.5)), ((0.0, 0.7), (0.0, 6.0)), ((1.0, 2.2), (1.0, 2.5))):
        grid = GridSpec(40, 23, region=region)
        xs, ys = grid.xs, grid.ys
        shorter = 0
        for size, (ci, cj, reach_x, reach_y, cap) in zip(oracle._CELL_SIZES, grid.cells):
            radius = np.hypot(reach_x[:, None], cap[:, None] * reach_y) + oracle._ROUNDING
            assert (list(ci), list(cj)) == centres[size]
            i, j = grid.split(*np.indices(radius.shape).reshape(2, -1), size)
            assert sorted(i * grid.ny + j) == list(range(grid.nx * grid.ny))  # each node in exactly one cell
            for a, b in np.ndindex(radius.shape):
                i, j = grid.split(np.array([a]), np.array([b]), size)
                assert len(i) == min(size, grid.nx - size * a) * min(size, grid.ny - size * b)
                reach = np.hypot(xs[i] - xs[ci[a]], ys[j] - ys[cj[b]]).max()
                centre = bloch_points(xs[ci[a]], ys[cj[b]])
                bloch_reach = np.linalg.norm(bloch_points(xs[i], ys[j]) - centre, axis=-1).max()
                assert bloch_reach <= radius[a, b] <= reach + oracle._ROUNDING
                shorter += radius[a, b] < 0.9 * reach
                for fine in (f for f in oracle._CELL_SIZES if f < size):
                    # the cells of a finer size that make up a cell hold exactly its nodes
                    fi, fj = grid.split(*grid.split(np.array([a]), np.array([b]), size, fine), fine)
                    assert sorted(fi * grid.ny + fj) == sorted(i * grid.ny + j)
        # off the equator the cap makes some cells far smaller on the sphere than in angle space
        assert shorter > 0 or region[0] == (1.0, 2.2), region


@pytest.mark.parametrize("grid", BLOCK_EDGE_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_split_lists_the_cells_in_order(grid):
    # cell by cell, x-major within each cell, cut at the grid's edge: a loop over the cells as the reference
    for size, fine in ((16, 4), (4, 1), (16, 1)):
        k, rows, cols = size // fine, -(-grid.nx // fine), -(-grid.ny // fine)
        a, b = np.indices((-(-grid.nx // size), -(-grid.ny // size))).reshape(2, -1)
        keep = np.random.default_rng(size).random(a.size) < 0.5
        a, b = a[keep], b[keep]
        i, j = grid.split(a, b, size, fine)
        ref = [(k * ca + u, k * cb + v) for ca, cb in zip(a, b) for u in range(k) for v in range(k)]
        assert list(zip(i.tolist(), j.tolist())) == [(u, v) for u, v in ref if u < rows and v < cols]


@pytest.mark.parametrize("grid", BLOCK_EDGE_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_live_nodes_keeps_every_node_within_the_threshold(grid):
    # slope * |p - q| is slope-Lipschitz in the Bloch point p, so every node within the threshold of q is
    # returned, and every node accepted is within it; -inf accepts every node, NaN leaves every node
    # undecided, +inf returns none
    rng = np.random.default_rng(grid.nx * grid.ny)
    points = bloch_points(grid.xs[:, None], grid.ys)
    (x0, x1), (y0, y1) = grid.region
    accepted = 0
    for scale in (4, 40):
        for slope in (1.0, 3.0):
            q = bloch_points(rng.uniform(x0, x1), rng.uniform(y0, y1))
            threshold = slope * rng.uniform(0, scale) * grid.spacing
            dist = slope * np.linalg.norm(points - q, axis=-1)
            (i, j), (ai, aj) = grid.live_nodes(lambda ci, cj: dist[ci, cj], slope, threshold)
            nodes = np.concatenate([i * grid.ny + j, ai * grid.ny + aj])
            assert np.unique(nodes).size == nodes.size
            near = np.flatnonzero(dist <= threshold)
            assert np.isin(near, nodes).all()
            assert np.all(dist[ai, aj] <= threshold)
            accepted += ai.size
    assert accepted > 0 or grid.nx * grid.ny < 16
    for value, (undecided, kept) in ((-np.inf, (0, grid.nx * grid.ny)), (np.nan, (grid.nx * grid.ny, 0)), (np.inf, (0, 0))):
        (i, j), (ai, aj) = grid.live_nodes(lambda ci, cj: np.full(ci.shape, value), 1.0, 0.0)
        assert sorted(i * grid.ny + j) == list(range(undecided)), value
        assert sorted(ai * grid.ny + aj) == list(range(kept)), value


def test_live_nodes_takes_radii_only_for_the_cells_it_tests():
    # a walk whose bound rejects every 16 x 16 cell builds no array sized by the 4 x 4 cells; building
    # the radius of every 4 x 4 cell, 8 bytes each, is what made --scan 100000 ask for 9.31 GiB
    grid = GridSpec(4000, 8000)
    reject = lambda ci, cj: np.full(ci.shape, np.inf)
    grid.live_nodes(reject, 1.0, 0.0)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        (i, j), (ai, aj) = grid.live_nodes(reject, 1.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert i.size == j.size == ai.size == aj.size == 0
    assert peak < 8 * (grid.nx // 4) * (grid.ny // 4), peak


def pair_slopes(op, anchor, x, y, x1, y1):
    """|dev(p) - dev(q)| / |p - q| over the point pairs (x, y), (x1, y1)."""
    gap = np.linalg.norm(bloch_points(x, y) - bloch_points(x1, y1), axis=-1)
    return np.abs(point_deviations(op, anchor, x, y) - point_deviations(op, anchor, x1, y1)) / gap


def test_deviation_slope_is_at_most_the_pruning_constant():
    # |dev(p) - dev(q)| <= L |p - q| with grid_flags' L = |M^dagger M|_F / 2, on nearby and on far pairs
    rng = np.random.default_rng(11)
    for op in family_ops(rng) + [random_op(rng, scale=30.0), masker_op(1.1, 0.7)]:
        lipschitz = np.linalg.norm(op.matrix.conj().T @ op.matrix) / 2
        anchor = sphere_state(rng)
        x, y = rng.uniform(0, np.pi, 2000), rng.uniform(0, 2 * np.pi, 2000)
        near = (x + rng.normal(0, 0.01, x.size), y + rng.normal(0, 0.01, y.size))
        for x1, y1 in (near, (x[::-1], y[::-1])):
            assert np.all(pair_slopes(op, anchor, x, y, x1, y1) <= lipschitz * (1 + 1e-12))
    # the bound is sharp: for the last operator, masker (1.1, 0.7), L = 1/sqrt(2), against sigma_1^2 = 1
    # and an operator scale of 2, and nearby pairs climb above 0.9 L
    assert abs(lipschitz - np.sqrt(0.5)) < 1e-12 and abs(operator_scale(op) - 2.0) < 1e-12
    assert pair_slopes(op, anchor, x, y, *near).max() > 0.9 * lipschitz


def test_grid_flags_evaluates_few_nodes(monkeypatch):
    # on 200 x 400, with 16 x 16 and 4 x 4 cells, L = |M^dagger M|_F / 2, radii in Bloch distance and whole
    # cells accepted: masker (1.1, 0.7) evaluates 8829 nodes for 9954 flags, and masker (0, 0) at the pole
    # 4725 for 10800.  With angle-space radii and no acceptance they took 15501 and 15925, and one level of
    # 4 x 4 cells with L = operator_scale took 25208 on the first
    evaluated = []
    call = oracle._NodeDeviations.__call__
    monkeypatch.setattr(oracle._NodeDeviations, "__call__", lambda self, i, j: evaluated.append(i.size) or call(self, i, j))
    grid = GridSpec(200, 400)
    for op, anchor, most in ((masker_op(1.1, 0.7), AngleState(1.0, 1.0), 9000), (masker_op(0.0, 0.0), AngleState(0.0, 0.0), 5000)):
        evaluated.clear()
        tol = default_kappa(op) * grid.spacing
        flags = grid_flags(op, anchor, grid, tol)
        assert sum(evaluated) <= most < np.count_nonzero(flags), sum(evaluated)
        assert np.array_equal(flags, grid_deviations(op, anchor, grid) <= tol)


def test_the_circle_and_scan_paths_make_no_state_objects(monkeypatch):
    # sampling a circle, verifying the samples and scanning a grid hold their states as arrays: no
    # AngleState is made, where each made one per sample, read back by verify_mask, or per flagged node
    made = []
    init = AngleState.__init__
    params, anchor, grid = MaskerParams(1.1, 0.7), AngleState(1.0, 1.0), GridSpec(200, 400)
    op = build_masker(params)
    monkeypatch.setattr(AngleState, "__init__", lambda self, x, y: made.append((x, y)) or init(self, x, y))
    report = verify_mask(op, sample_circle(maskable_circle(params, anchor), 360))
    hits = grid_scan(op, anchor, grid, default_kappa(op) * grid.spacing)
    assert report.ok and len(hits) > 1000 and made == []
    AngleState(0.5, 0.5)  # the count does see a state made
    assert made == [(0.5, 0.5)]


def dense_report(op, anchor, grid, band_bound):
    """agreement_report by definition, from grid_deviations and class_distance at every node.

    The band does not depend on the scan, so it is taken from the report under test.
    """
    tol = default_kappa(op) * grid.spacing
    flagged = grid_deviations(op, anchor, grid) <= tol
    xs, ys = grid.xs, grid.ys
    dist = class_distance(maskable_set(op, anchor), bloch_points(xs[:, None], ys).reshape(-1, 3))
    complete = np.all(flagged[dist <= grid.spacing * (1 - 1e-9)])
    max_dist = float(dist[flagged].max()) if flagged.any() else 0.0
    return {
        "resolution": grid.nx,
        "tolerance": float(tol),
        "flagged": int(flagged.sum()),
        "max_distance_to_class": max_dist,
        "band_bound": band_bound,
        "agreement": "OK" if complete and max_dist <= band_bound else "MISMATCH",
    }


@pytest.mark.parametrize(
    "grid", [GridSpec(200, 400), GridSpec(97, 203), GridSpec(37, 74)], ids=lambda g: f"{g.nx}x{g.ny}"
)
def test_agreement_report_equals_the_dense_report(grid):
    rng = np.random.default_rng(6)
    cases = [
        (masker_op(1.1, 0.7), AngleState(1.0, 1.0), Circle),
        (rank_two_op(rng), sphere_state(rng), PointPair),
        (random_op(rng), sphere_state(rng), SinglePoint),
        (masker_op(0.0, 0.0), AngleState(0.0, 0.0), SinglePoint),  # a tangent cut at the pole
    ]
    for op, anchor, kind in cases:
        assert isinstance(maskable_set(op, anchor), kind)
        rep = agreement_report(op, anchor, grid)
        ref = dense_report(op, anchor, grid, rep["band_bound"])
        assert {k: repr(v) for k, v in rep.items()} == {k: repr(v) for k, v in ref.items()}


def test_agreement_report_screens_few_cells(monkeypatch):
    # masker (1.1, 0.7) on 200 x 400: the screen takes class distances at the 325 centres of the
    # 16 x 16 cells, then at 952 centres of 4 x 4 cells (1016 with angle-space radii); one level of
    # 4 x 4 cells took all 5000
    sizes = []
    distance = crosscheck.class_distance
    monkeypatch.setattr(crosscheck, "class_distance", lambda c, p: sizes.append(len(p)) or distance(c, p))
    agreement_report(masker_op(1.1, 0.7), AngleState(1.0, 1.0), GridSpec(200, 400))
    coarse, fine, _ = sizes  # the third call takes the distances at the screened and flagged nodes
    assert coarse == 325 and fine <= 1100 < 5000, sizes


def _unflagging_any_near_node_turns_the_verdict(monkeypatch, op, anchor, grid):
    # completeness is decided on the nodes of the cells near the class only, yet unflagging
    # any one node within one spacing of the class must turn the verdict
    xs, ys = grid.xs, grid.ys
    dist = class_distance(maskable_set(op, anchor), bloch_points(xs[:, None], ys).reshape(-1, 3))
    near = dist <= grid.spacing * (1 - 1e-9)
    flags = near.copy()
    monkeypatch.setattr(crosscheck, "grid_flags", lambda *args: flags)
    assert agreement_report(op, anchor, grid)["agreement"] == "OK"
    for q in np.flatnonzero(near):
        flags[q] = False
        assert agreement_report(op, anchor, grid)["agreement"] == "MISMATCH", q
        flags[q] = True


@pytest.mark.parametrize(
    "op, anchor", [(masker_op(1.1, 0.7), AngleState(1.0, 1.0)), (masker_op(0.0, 0.0), AngleState(0.0, 0.0))]
)
def test_agreement_report_sees_every_node_within_one_spacing(monkeypatch, op, anchor):
    _unflagging_any_near_node_turns_the_verdict(monkeypatch, op, anchor, GridSpec(24, 48))


def test_agreement_report_sees_the_nodes_the_near_walk_accepts(monkeypatch):
    # the last x-cell of a 17-node axis is one node wide at the south pole, so the near walk accepts its
    # 33 nodes whole instead of leaving them undecided; they must count toward completeness all the same
    op, anchor, grid = masker_op(0.0, 0.0), AngleState(np.pi, 0.0), GridSpec(17, 33)
    dist = class_distance(maskable_set(op, anchor), bloch_points(grid.xs[:, None], grid.ys).reshape(-1, 3))
    _, (ai, _) = grid.live_nodes(lambda i, j: dist.reshape(grid.nx, grid.ny)[i, j], 1.0, grid.spacing)
    assert ai.size == 33 and np.all(ai == grid.nx - 1)
    _unflagging_any_near_node_turns_the_verdict(monkeypatch, op, anchor, grid)


def test_node_points_are_bloch_points_bit_for_bit():
    # the screen and the distance pass gather each axis's sines and cosines instead of taking four per node
    rng = np.random.default_rng(27)
    for _ in range(100):
        x0, y0 = rng.uniform(-1, 2), rng.uniform(-3, 5)
        grid = GridSpec(int(rng.integers(2, 90)), int(rng.integers(2, 90)),
                        region=((x0, x0 + rng.uniform(1e-3, 4)), (y0, y0 + rng.uniform(1e-3, 8))))
        i, j = rng.integers(0, grid.nx, 300), rng.integers(0, grid.ny, 300)
        xs, ys = grid.xs, grid.ys
        points, ref = crosscheck.node_points(grid)(i, j), bloch_points(xs[i], ys[j])
        assert np.array_equal(points.view(np.int64), ref.view(np.int64)) and points.strides == ref.strides


def test_grid_flags_computes_every_block_in_one_workspace():
    # masker (1.1, 0.7) on 200 x 400 evaluates 8829 nodes in blocks of up to 4096, in one 2.9 MB workspace;
    # a fresh 64-row gather for each 8192-node block took the peak to 5.7 MB
    op, anchor, grid = masker_op(1.1, 0.7), AngleState(1.0, 1.0), GridSpec(200, 400)
    tol = default_kappa(op) * grid.spacing
    grid_flags(op, anchor, grid, tol)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        grid_flags(op, anchor, grid, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_grid_memory_per_node_is_bounded():
    op = random_op(np.random.default_rng(5))
    anchor = AngleState(1.0, 2.0)
    masked_fraction_scaling(op, anchor, [8])  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        masked_fraction_scaling(op, anchor, [400])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 400 * 800, peak / (400 * 800)


def test_grid_scan_hugs_the_circle():
    op = masker_op(0.0, 0.0)
    anchor = AngleState(np.pi / 3, np.pi / 4)
    hits = grid_scan(op, anchor, GridSpec(400, 400), tol=1e-6)
    assert hits
    # deviation for this operator is |cos x - 1/2| / sqrt(2)
    assert max(abs(np.cos(s.x) - 0.5) for s in hits) < 2e-6
    circle = maskable_circle(MaskerParams(0.0, 0.0), anchor)
    from qmask import angles_to_bloch, distance_to_circle

    for s in hits[:: max(1, len(hits) // 50)]:
        assert distance_to_circle(circle, angles_to_bloch(s)) < 1e-5


@pytest.mark.parametrize("grid", BLOCK_EDGE_GRIDS + [GridSpec(7, 9, region=((-1e-13, np.pi + 1e-13), (-1e-13, 6.0)))],
                         ids=lambda g: f"{g.nx}x{g.ny}")
def test_grid_scan_is_the_states_of_the_flagged_nodes(grid):
    # bit for bit the states made one flagged node at a time, on a spacing-tied and on a vacuous tolerance
    # (every node, the poles with y != 0 among them), and on a region whose edges AngleState absorbs
    op, anchor = masker_op(1.1, 0.7), AngleState(1.0, 1.0)
    for tol in (default_kappa(op) * grid.spacing, np.finfo(float).max):
        i, j = np.divmod(np.flatnonzero(grid_flags(op, anchor, grid, tol)), grid.ny)
        want = list(map(AngleState, grid.xs[i].tolist(), grid.ys[j].tolist()))
        got = grid_scan(op, anchor, grid, tol)
        assert isinstance(got, AngleStates) and len(got) == len(want)
        assert [(s.x.hex(), s.y.hex()) for s in got] == [(s.x.hex(), s.y.hex()) for s in want]


@pytest.mark.parametrize("region", [((-0.5, 1.0), (0.0, 1.0)), ((0.0, 3.5), (0.0, 1.0)), ((0.0, 1.0), (6.0, 7.0))])
def test_grid_scan_outside_the_angle_ranges_raises_the_state_error(region):
    # a vacuous tolerance flags every node: the error is that of the first node, x-major, as a state
    grid = GridSpec(6, 4, region=region)
    with pytest.raises(InvalidInputError) as old:
        list(map(AngleState, *(axis.tolist() for axis in grid_points(grid))))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(old.value))}$"):
        grid_scan(masker_op(1.1, 0.7), AngleState(1.0, 1.0), grid, np.finfo(float).max)


def test_grid_scan_identity_embedding_isolated():
    op = identity_embedding()
    anchor = AngleState(1.3, 2.1)
    grid = GridSpec(80, 160)
    tol = default_kappa(op) * grid.spacing
    hits = grid_scan(op, anchor, grid, tol)
    assert hits
    for s in hits:
        assert np.hypot(s.x - anchor.x, s.y - anchor.y) < 6 * grid.spacing


def test_grid_scan_vacuous_tolerance():
    grid = GridSpec(10, 20)
    # the largest finite tolerance; an infinite one is rejected (test_tolerances_must_be_positive_and_finite)
    hits = grid_scan(masker_op(1.0, 1.0), AngleState(0.4, 0.4), grid, tol=np.finfo(float).max)
    assert len(hits) == grid.nx * grid.ny


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_tolerances_must_be_positive_and_finite(tol):
    op, anchor = identity_embedding(), AngleState(1.0, 1.0)
    with pytest.raises(InvalidInputError, match=f"^tol={tol} must be a positive finite number$"):
        grid_scan(op, anchor, GridSpec(10, 20), tol)
    with pytest.raises(InvalidInputError, match=f"^tol={tol} must be a positive finite number$"):
        grid_flags(op, anchor, GridSpec(10, 20), tol)
    with pytest.raises(InvalidInputError, match=f"^kappa={tol} must be a positive finite number$"):
        masked_fraction_scaling(op, anchor, [10, 20], kappa=tol)


def test_grid_scan_monotone_in_tolerance():
    rng = np.random.default_rng(0)
    op = random_op(rng)
    anchor = random_state(rng)
    grid = GridSpec(40, 80)
    small = {(s.x, s.y) for s in grid_scan(op, anchor, grid, tol=0.05)}
    large = {(s.x, s.y) for s in grid_scan(op, anchor, grid, tol=0.2)}
    assert small <= large


def test_grid_scan_contains_node_nearest_anchor():
    rng = np.random.default_rng(1)
    for _ in range(10):
        op = random_op(rng)
        anchor = random_state(rng)
        grid = GridSpec(60, 120)
        xs, ys = grid_points(grid)
        dev = grid_deviations(op, anchor, grid)
        nearest = np.argmin((xs - anchor.x) ** 2 + (ys - anchor.y) ** 2)
        assert dev[nearest] <= default_kappa(op) * grid.spacing


def test_fraction_scaling_circle_class():
    op = masker_op(np.pi / 4, np.pi / 4)
    rows = masked_fraction_scaling(op, AngleState(np.pi / 3, np.pi / 4), [50, 100, 200])
    fractions = [f for _, f in rows]
    assert all(f > 0 for f in fractions)
    for a, b in zip(fractions, fractions[1:]):
        assert 0.3 <= b / a <= 0.7


def test_fraction_scaling_point_class():
    op = identity_embedding()
    rows = masked_fraction_scaling(op, AngleState(1.2, 2.0), [50, 100, 200])
    fractions = [f for _, f in rows]
    assert all(f > 0 for f in fractions)
    for a, b in zip(fractions, fractions[1:]):
        assert 0.15 <= b / a <= 0.35


def test_fraction_scaling_exponents():
    circle_rows = masked_fraction_scaling(
        masker_op(1.1, 0.7), AngleState(1.0, 1.0), [50, 100, 200]
    )
    point_rows = masked_fraction_scaling(identity_embedding(), AngleState(1.0, 1.0), [50, 100, 200])
    for rows, lo, hi in ((circle_rows, 0.5, 1.5), (point_rows, 1.5, 2.5)):
        for (_, fa), (_, fb) in zip(rows, rows[1:]):
            assert lo <= np.log2(fa / fb) <= hi


def test_fraction_scaling_validation():
    op = identity_embedding()
    with pytest.raises(InvalidInputError):
        masked_fraction_scaling(op, AngleState(1.0, 1.0), [100, 50])
    with pytest.raises(InvalidInputError):
        masked_fraction_scaling(op, AngleState(1.0, 1.0), [50, 100], kappa=0.0)


@pytest.mark.parametrize("kappa, resolution", [(1e308, 2), (5e-324, 100)])
def test_fraction_scaling_kappa_times_the_spacing_must_be_positive_and_finite(kappa, resolution):
    # kappa * h over- or underflows although kappa is positive and finite: the error names kappa, not a tol
    # the caller never gave, and comes before any grid is scanned
    with pytest.raises(InvalidInputError) as exc:
        masked_fraction_scaling(identity_embedding(), AngleState(1.0, 1.0), [2, 4, 100], kappa=kappa)
    assert str(exc.value) == f"kappa={kappa} times the spacing at resolution {resolution} must be a positive finite number"


def test_agreement_report_ok_across_operator_kinds():
    rng = np.random.default_rng(3)
    ops = [random_op(rng) for _ in range(5)]
    ops += [masker_op(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(5)]
    ops += [planted_product_op(rng)[0] for _ in range(3)]
    ops += [identity_embedding(), random_op(rng, scale=0.05), random_op(rng, scale=50.0)]
    for op in ops:
        rep = agreement_report(op, AngleState(np.pi / 2, 1.3), GridSpec(100, 200))
        assert rep["agreement"] == "OK", rep
        assert rep["flagged"] >= 1


def test_agreement_report_point_pair_band_below_the_diameter():
    # the rank-two case of the seed-0 operator pool, after its general and masker cases;
    # at 200 x 400 its band is ~2.96, past the sphere's diameter, so soundness cannot fail there
    rng = np.random.default_rng(0)
    random_op(rng), sphere_state(rng), random_params(rng), sphere_state(rng)
    op, anchor = rank_two_op(rng), sphere_state(rng)
    assert isinstance(maskable_set(op, anchor), PointPair)
    rep = agreement_report(op, anchor, GridSpec(400, 800))
    assert rep["agreement"] == "OK", rep
    assert rep["max_distance_to_class"] <= rep["band_bound"] < 2.0, rep


def test_no_neighborhood_is_masked():
    # the masked fraction of a small angle-space neighborhood around the
    # anchor decays as the grid refines, for every nonzero operator; the
    # coarse grid may sit entirely inside the tolerance band, so the
    # comparison spans a 16x refinement
    rng = np.random.default_rng(2)
    delta = 0.1
    for trial in range(100):
        op = random_op(rng)
        x0 = rng.uniform(0.5, np.pi - 0.5)
        y0 = rng.uniform(0.5, 2 * np.pi - 0.5)
        region = ((x0 - delta, x0 + delta), (y0 - delta, y0 + delta))
        grids = [GridSpec(n, 2 * n, region=region) for n in (10, 160)]
        flags = [grid_flags(op, AngleState(x0, y0), grid, default_kappa(op) * grid.spacing) for grid in grids]
        coarse, fine = (float(np.count_nonzero(f)) / f.size for f in flags)
        assert fine <= 0.25 * coarse + 1e-12, (trial, coarse, fine)
        assert fine < 0.1, (trial, coarse, fine)


def test_oracle_verdict_and_fractions_scale_invariant():
    # the deviations of k*op are |k|^2 times those of op, and so is the
    # spacing-tied tolerance, so nothing the oracle decides may move with k
    rng = np.random.default_rng(4)
    op = random_op(rng)
    anchor = AngleState(0.7, 1.9)
    grid = GridSpec(40, 80)
    ref = agreement_report(op, anchor, grid)
    ref_fractions = masked_fraction_scaling(op, anchor, [10, 20, 40])
    assert ref["agreement"] == "OK" and 0 < ref["flagged"] < grid.nx * grid.ny
    for k in (1e-150, 1e-100, 1e100, 1e150, 1e-100j):
        scaled = GeneralLinearOp.from_matrix(k * op.matrix)
        rep = agreement_report(scaled, anchor, grid)
        assert (rep["agreement"], rep["flagged"]) == (ref["agreement"], ref["flagged"]), (k, rep)
        assert masked_fraction_scaling(scaled, anchor, [10, 20, 40]) == ref_fractions, k
