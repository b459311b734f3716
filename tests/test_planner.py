"""Trajectory planner tests, including an exhaustive shortest-path oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aerosurvey import planner, spatial
from aerosurvey.planner import PlannerKind
from aerosurvey.spatial import GridSpec, Waypoint
import oracles
from oracles import box_filter, edge_cost, enumerate_best_cost, king_neighbors, route_cost, sample_path


def grid(rows=3, cols=3, spacing=10.0):
    return GridSpec(rows=rows, cols=cols, spacing=spacing)


class TestPickDestination:
    def test_impulse_lands_adjacent_to_peak(self):
        # an interior impulse spreads to a 3x3 plateau under the box filter;
        # the lowest-index tie rule selects the plateau's first cell, which is
        # always within one king move of the peak
        g = grid(5, 5)
        field = np.zeros(25)
        peak = 2 * 5 + 3
        field[peak] = 1.0
        got = planner.pick_destination(field, g)
        assert got == (2 - 1) * 5 + (3 - 1)
        pr, pc = divmod(peak, 5)
        gr, gc = divmod(got, 5)
        assert max(abs(pr - gr), abs(pc - gc)) <= 1

    def test_uniform_zero_field_breaks_tie_to_lowest_index(self):
        g = grid(3, 3)
        assert planner.pick_destination(np.zeros(9), g) == 0

    def test_corner_impulses_elect_center(self):
        g = grid(3, 3)
        field = np.zeros(9)
        field[[0, 2, 6, 8]] = 1.0
        # the 3x3 box filter at the center sees all four corners
        assert planner.pick_destination(field, g) == 4

    def test_positive_uniform_prefers_interior(self):
        # with zero padding outside the grid, interior points collect the
        # largest filtered mass on a uniform positive field
        g = grid(3, 3)
        assert planner.pick_destination(np.ones(9), g) == 4

    def test_exclude_removes_candidate(self):
        g = grid(3, 3)
        field = np.zeros(9)
        field[4] = 1.0
        # a center impulse floods the whole 3x3 filtered field, so the tie
        # rule yields 0; excluding 0 moves to the next index
        assert planner.pick_destination(field, g) == 0
        assert planner.pick_destination(field, g, exclude=0) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            planner.pick_destination(np.zeros(5), grid(3, 3))

    @pytest.mark.parametrize("exclude", [-1, 9])
    def test_exclude_outside_the_grid_rejected(self, exclude):
        with pytest.raises(IndexError, match="exclude"):
            planner.pick_destination(np.zeros(9), grid(3, 3), exclude=exclude)

    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        levels=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_exclude_equals_pick_then_repick(self, shape, levels, seed):
        # Few distinct levels make ties common; levels == 1 is the all-zero
        # field. Excluding the current node up front picks what picking, then
        # picking again without the current node when it won, picks.
        g = grid(*shape)
        u = np.random.default_rng(seed).integers(0, levels, g.num_points) / 2.0
        for current in range(g.num_points):
            want = planner.pick_destination(u, g)
            if want == current:
                want = planner.pick_destination(u, g, exclude=current)
            assert planner.pick_destination(u, g, exclude=current) == want


# Cell values for box-filter fields: signed zeros; a few exact levels, so
# filtered sums tie; uncertainty-like values saturated at exactly 0 and 1; and
# arbitrary finite values, at most 1e307 in magnitude so that no sum of nine
# overflows.
FIELD_ELEMENTS = [
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([0.0, 0.25, 0.5]),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(-1e307, 1e307),
]


@st.composite
def box_fields(draw):
    shape = draw(
        st.one_of(
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            st.tuples(st.just(1), st.integers(1, 12)),
            st.tuples(st.integers(1, 12), st.just(1)),
        )
    )
    return draw(arrays(float, shape, elements=draw(st.sampled_from(FIELD_ELEMENTS))))


class TestBoxFilter:
    @settings(max_examples=300)
    @given(field=box_fields())
    def test_matches_convolve2d_bit_for_bit(self, field):
        want = box_filter(field)
        got = planner._box_sum(field)
        np.testing.assert_array_equal(got, want, strict=True)
        assert got.tobytes() == want.tobytes()  # signs of zero included

    @settings(max_examples=100)
    @given(field=box_fields())
    def test_pick_destination_is_the_oracle_argmax(self, field):
        g = grid(*field.shape)
        filtered = box_filter(field).ravel()
        assert planner.pick_destination(field.ravel(), g) == int(np.argmax(filtered))
        for exclude in range(g.num_points):
            want = filtered.copy()
            if want.size > 1:
                want[exclude] = -np.inf
            assert planner.pick_destination(field.ravel(), g, exclude=exclude) == int(np.argmax(want))


class TestMinCostRoute:
    def route(self, g, u, dst, pos=(0.0, 0.0)):
        return planner.min_cost_route(g, u, Waypoint(*pos), dst)

    def indices(self, g, route):
        return [spatial.point_to_index(g, (w.x, w.y)) for w in route]

    def test_same_source_and_destination(self):
        g = grid()
        route = self.route(g, np.ones(9), 0)
        assert len(route) == 1
        assert (route[0].x, route[0].y) == (0.0, 0.0)

    def test_route_is_walk_on_graph(self):
        g = grid(4, 4)
        u = np.random.default_rng(0).uniform(0.1, 1.0, 16)
        idx = self.indices(g, self.route(g, u, 15))
        assert idx[0] == 0 and idx[-1] == 15
        for a, b in zip(idx[:-1], idx[1:]):
            assert b in king_neighbors(g, a)

    def test_uniform_field_gives_chebyshev_hops(self):
        g = grid(3, 3)
        route = self.route(g, np.ones(9), 2)
        # (0,0) to (20,0): Chebyshev distance 2, so 3 waypoints
        assert len(route) == 3

    def test_uniform_field_cost_matches_enumeration(self):
        g = grid(3, 3)
        u = np.ones(9)
        route = self.route(g, u, 2)
        got = route_cost(g, u, route)
        best = enumerate_best_cost(g, u, 0, 2)
        assert got == pytest.approx(best, rel=1e-12)

    def test_corridor_of_uncertainty_is_followed(self):
        # all mass on the top row of a 3x4 grid: the cheap edges live there
        g = grid(3, 4)
        u = np.full(12, 1e-9)
        u[0:4] = 1.0
        route = self.route(g, u, 3)
        assert self.indices(g, route) == [0, 1, 2, 3]
        got = route_cost(g, u, route)
        best = enumerate_best_cost(g, u, 0, 3)
        assert got == pytest.approx(best, rel=1e-12)

    def test_destination_out_of_range_rejected(self):
        g = grid()
        for dst in (-1, 9):
            with pytest.raises(IndexError, match="destination"):
                self.route(g, np.ones(9), dst)

    def test_floor_applies_to_each_edge_integral(self):
        # Via node 1 each 10 m edge integrates 5 m x 2e-7 = 1e-6, the floor,
        # so the two edges cost 2e6 against the floored diagonal's 1e6.
        route = self.route(grid(2, 2), np.array([0.0, 2e-7, 0.0, 0.0]), 3)
        assert route == [(0.0, 0.0), (10.0, 10.0)]

    def test_off_grid_start_snaps_to_nearest(self):
        g = grid(3, 3)
        route = self.route(g, np.ones(9), 8, pos=(1.0, 1.5))
        assert (route[0].x, route[0].y) == (0.0, 0.0)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        dst=st.integers(0, 8),
    )
    def test_optimality_against_enumeration(self, seed, dst):
        g = grid(3, 3)
        u = np.random.default_rng(seed).uniform(0.0, 1.0, 9)
        route = self.route(g, u, dst)
        got = route_cost(g, u, route)
        best = enumerate_best_cost(g, u, 0, dst)
        assert got == pytest.approx(best, rel=1e-9, abs=1e-12)

    @settings(max_examples=60)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 10_000),
        ends=st.tuples(st.integers(0, 15), st.integers(0, 15)),
    )
    def test_optimal_king_walk_on_every_grid_shape(self, shape, seed, ends):
        # Line grids included. Three levels, 0 among them, make exact cost
        # ties and all-zero fields common.
        g = grid(*shape)
        u = np.random.default_rng(seed).integers(0, 3, g.num_points) / 2.0
        src, dst = (e % g.num_points for e in ends)
        start = np.add(spatial.index_to_point(g, src), 0.3 * g.spacing)
        route = self.route(g, u, dst, pos=start)
        idx = self.indices(g, route)
        assert idx[0] == src and idx[-1] == dst
        for a, b in zip(idx[:-1], idx[1:]):
            assert b in king_neighbors(g, a)
        assert route_cost(g, u, route) == pytest.approx(
            enumerate_best_cost(g, u, src, dst), rel=1e-9, abs=1e-12
        )

    def test_ties_go_to_the_lowest_index(self):
        # On an all-zero field every edge costs 1 / EDGE_FLOOR, so the
        # straight two-move routes tie with the bent ones.
        g = grid(3, 3)
        assert self.indices(g, self.route(g, np.zeros(9), 2)) == [0, 1, 2]
        assert self.indices(g, self.route(g, np.zeros(9), 6)) == [0, 3, 6]


# Grid shapes up to 12 x 12, with one-row and one-column grids drawn on purpose.
LINE_AND_BOX_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


class TestRouteOracle:
    @settings(max_examples=150)
    @given(shape=LINE_AND_BOX_SHAPES, spacing=st.sampled_from([1.0, 7.3, 10.0]), seed=st.integers(0, 2**32 - 1))
    def test_same_route_as_the_oracle(self, shape, spacing, seed):
        # About 30 % zeros and values rounded to a tenth, so equal edge and
        # path costs are common and the tie rule decides many routes.
        g = grid(*shape, spacing=spacing)
        rng = np.random.default_rng(seed)
        u = np.round(rng.uniform(0.0, 1.0, g.num_points), 1)
        u[rng.uniform(size=g.num_points) < 0.3] = 0.0
        for src, dst in rng.integers(0, g.num_points, size=(8, 2)).tolist():
            if src == dst:
                want = [src]
            else:
                want = oracles.dijkstra(g, u.tolist(), src, dst)
                assert planner._dijkstra(g, u, src, dst) == want
            route = planner.min_cost_route(g, u, Waypoint(*spatial.index_to_point(g, src)), dst)
            assert [(w.x, w.y) for w in route] == [tuple(spatial.index_to_point(g, i)) for i in want]


class TestFiniteFields:
    # A nan or an infinity anywhere in the field, the destination included,
    # is rejected by name instead of failing inside the search or steering
    # the box filter.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["destination", "everywhere"])
    def test_min_cost_route_rejects_non_finite_fields(self, bad, where):
        g = grid(4, 4)
        u = np.full(16, 0.5)
        if where == "destination":
            u[15] = bad
        else:
            u[:] = bad
        with pytest.raises(ValueError, match="uncertainty field must be finite"):
            planner.min_cost_route(g, u, Waypoint(0.0, 0.0), 15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pick_destination_rejects_non_finite_fields(self, bad):
        g = grid(4, 4)
        u = np.zeros(16)
        u[5] = bad
        with pytest.raises(ValueError, match="grid index 5"):
            planner.pick_destination(u, g)

    def test_a_start_on_the_destination_is_checked_too(self):
        g = grid(3, 3)
        with pytest.raises(ValueError, match="finite"):
            planner.min_cost_route(g, np.full(9, np.nan), Waypoint(0.0, 0.0), 0)


class TestSweepRoutes:
    def test_grid_route_3x3_corners(self):
        pts = [(w.x, w.y) for w in planner.grid_route(grid(3, 3))]
        assert pts == [
            (0.0, 0.0), (20.0, 0.0), (20.0, 10.0), (0.0, 10.0), (0.0, 20.0), (20.0, 20.0),
        ]

    def test_grid_route_single_row(self):
        pts = [(w.x, w.y) for w in planner.grid_route(GridSpec(rows=1, cols=4, spacing=10.0))]
        assert pts == [(0.0, 0.0), (30.0, 0.0)]

    def test_grid_route_2x2_s_order(self):
        pts = [(w.x, w.y) for w in planner.grid_route(grid(2, 2))]
        assert pts == [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]

    def test_grid_route_visits_every_row_once(self):
        for rows, cols in [(2, 5), (4, 3), (5, 5), (3, 2)]:
            g = grid(rows, cols)
            route = planner.grid_route(g)
            ys = []
            for w in route:
                if not ys or ys[-1] != w.y:
                    ys.append(w.y)
            assert ys == [g.origin[1] + r * g.spacing for r in range(rows)]

    def test_grid_route_covers_all_points_when_sampled(self):
        g = grid(4, 5)
        route = planner.grid_route(g)
        samples = sample_path(route, g.spacing)
        seen = {spatial.point_to_index(g, s) for s in samples}
        assert seen == set(range(g.num_points))

    def test_spiral_route_3x3(self):
        pts = [(w.x, w.y) for w in planner.spiral_route(grid(3, 3))]
        assert pts == [
            (0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0), (0.0, 10.0), (10.0, 10.0),
        ]

    def test_spiral_route_2x2(self):
        pts = [(w.x, w.y) for w in planner.spiral_route(grid(2, 2))]
        assert pts == [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]

    def test_spiral_route_1x1(self):
        pts = [(w.x, w.y) for w in planner.spiral_route(GridSpec(rows=1, cols=1, spacing=10.0))]
        assert pts == [(0.0, 0.0)]

    def test_spiral_visits_every_ring(self):
        # each perimeter ring contributes its top-left corner exactly once
        for rows, cols in [(4, 4), (5, 6), (6, 5), (5, 5)]:
            g = grid(rows, cols)
            route = planner.spiral_route(g)
            corners = [(w.x, w.y) for w in route]
            rings = min(rows, cols + 1) // 2 + 1
            expected_rings = (min(rows, cols) + 1) // 2
            starts = [
                (g.origin[0] + k * g.spacing, g.origin[1] + k * g.spacing)
                for k in range(expected_rings)
            ]
            for s in starts:
                assert s in corners

    def test_spiral_samples_cover_all_points(self):
        g = grid(5, 5)
        route = planner.spiral_route(g)
        samples = sample_path(route, g.spacing)
        seen = {spatial.point_to_index(g, s) for s in samples}
        assert seen == set(range(g.num_points))


class TestRandomRoute:
    def test_reproducible_with_seed(self):
        g = grid(3, 3)
        here = Waypoint(10.0, 10.0)
        a = planner.random_route(g, np.random.default_rng(5), here)
        b = planner.random_route(g, np.random.default_rng(5), here)
        assert [(w.x, w.y) for w in a] == [(w.x, w.y) for w in b]

    def test_single_point_grid(self):
        # The only point is where the drone is; there is no other to draw.
        g = GridSpec(rows=1, cols=1, spacing=10.0)
        route = planner.random_route(g, np.random.default_rng(0), Waypoint(0.0, 0.0))
        assert [(w.x, w.y) for w in route] == [(0.0, 0.0)]

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 2), (3, 3)])
    def test_never_returns_here_and_draws_until_it_moves(self, shape):
        # From every node, the point returned is another one, and the
        # generator is left where drawing indices until one differs from
        # here's leaves it: the draws of a zero-length episode and the next.
        g = GridSpec(rows=shape[0], cols=shape[1], spacing=10.0, origin=(-7.5, 3.25))
        for g_here in range(g.num_points):
            here = spatial.index_to_point(g, g_here)
            rng, draws = np.random.default_rng(g_here), np.random.default_rng(g_here)
            for _ in range(50):
                (dest,) = planner.random_route(g, rng, here)
                assert dest != here
                index = g_here
                while index == g_here:
                    index = int(draws.integers(g.num_points))
                assert dest == spatial.index_to_point(g, index)
                assert rng.bit_generator.state == draws.bit_generator.state

    def test_destination_uniform_over_grid(self):
        # From off the nodes every point may be drawn, with equal chance.
        g = grid(3, 3)
        rng = np.random.default_rng(123)
        n = 10_000
        counts = np.zeros(9)
        for _ in range(n):
            (dest,) = planner.random_route(g, rng, Waypoint(5.0, 5.0))
            counts[spatial.point_to_index(g, (dest.x, dest.y))] += 1
        freq = counts / n
        se = np.sqrt((1 / 9) * (8 / 9) / n)
        assert np.max(np.abs(freq - 1.0 / 9.0)) < 3.0 * se


class TestEdgeCost:
    """Hand-computed edge costs of the oracle that route costs are summed with."""

    def test_positive_even_on_zero_uncertainty(self):
        g = grid(3, 3)
        assert edge_cost(np.zeros(9), g, 0, 1) == 1.0 / planner.EDGE_FLOOR

    def test_reciprocal_of_trapezoid(self):
        g = grid(3, 3)
        u = np.zeros(9)
        u[0], u[1] = 0.4, 0.6
        got = edge_cost(u, g, 0, 1)
        assert got == pytest.approx(1.0 / (10.0 * 0.5), rel=1e-12)

    def test_diagonal_uses_diagonal_length(self):
        g = grid(3, 3)
        u = np.ones(9)
        got = edge_cost(u, g, 0, 4)
        assert got == pytest.approx(1.0 / (10.0 * np.sqrt(2.0)), rel=1e-12)
