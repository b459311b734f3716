"""Trajectory planner tests, including an exhaustive shortest-path oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import planner, spatial
from aerosurvey.planner import PlannerKind
from aerosurvey.spatial import GridSpec, Waypoint
from oracles import route_cost, sample_path


def grid(rows=3, cols=3, spacing=10.0):
    return GridSpec(rows=rows, cols=cols, spacing=spacing)


def enumerate_best_cost(g: GridSpec, u: np.ndarray, src: int, dst: int) -> float:
    """Brute-force minimum cost over all simple paths (oracle for small grids)."""
    graph = spatial.build_motion_graph(g)
    best = float("inf")

    def visit(node, seen, cost):
        nonlocal best
        if cost >= best:
            return
        if node == dst:
            best = cost
            return
        for nxt in graph.neighbors[node]:
            if nxt not in seen:
                visit(nxt, seen | {nxt}, cost + planner._edge_cost(u, g, node, nxt))

    visit(src, {src}, 0.0)
    return best


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


class TestMinCostRoute:
    def route(self, g, u, dst, pos=(0.0, 0.0)):
        return planner.min_cost_route(g, spatial.build_motion_graph(g), u, Waypoint(*pos), dst)

    def test_same_source_and_destination(self):
        g = grid()
        route = self.route(g, np.ones(9), 0)
        assert len(route) == 1
        assert (route[0].x, route[0].y) == (0.0, 0.0)

    def test_route_is_walk_on_graph(self):
        g = grid(4, 4)
        u = np.random.default_rng(0).uniform(0.1, 1.0, 16)
        graph = spatial.build_motion_graph(g)
        route = self.route(g, u, 15)
        idx = [spatial.point_to_index(g, (w.x, w.y)) for w in route]
        assert idx[0] == 0 and idx[-1] == 15
        for a, b in zip(idx[:-1], idx[1:]):
            assert b in graph.neighbors[a]

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
        idx = [spatial.point_to_index(g, (w.x, w.y)) for w in route]
        assert idx == [0, 1, 2, 3]
        got = route_cost(g, u, route)
        best = enumerate_best_cost(g, u, 0, 3)
        assert got == pytest.approx(best, rel=1e-12)

    def test_missing_graph_rejected(self):
        with pytest.raises(ValueError):
            planner.min_cost_route(grid(), None, np.ones(9), Waypoint(0, 0), 2)

    def test_destination_out_of_range_rejected(self):
        g = grid()
        for dst in (-1, 9):
            with pytest.raises(IndexError):
                self.route(g, np.ones(9), dst)

    def test_off_grid_start_snaps_to_nearest(self):
        g = grid(3, 3)
        route = self.route(g, np.ones(9), 8, pos=(1.0, 1.5))
        assert (route[0].x, route[0].y) == (0.0, 0.0)

    @settings(max_examples=25, deadline=None)
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
        a = planner.random_route(g, np.random.default_rng(5))
        b = planner.random_route(g, np.random.default_rng(5))
        assert [(w.x, w.y) for w in a] == [(w.x, w.y) for w in b]

    def test_single_point_grid(self):
        g = GridSpec(rows=1, cols=1, spacing=10.0)
        route = planner.random_route(g, np.random.default_rng(0))
        assert [(w.x, w.y) for w in route] == [(0.0, 0.0)]

    def test_destination_uniform_over_grid(self):
        g = grid(3, 3)
        rng = np.random.default_rng(123)
        n = 10_000
        counts = np.zeros(9)
        for _ in range(n):
            (dest,) = planner.random_route(g, rng)
            counts[spatial.point_to_index(g, (dest.x, dest.y))] += 1
        freq = counts / n
        se = np.sqrt((1 / 9) * (8 / 9) / n)
        assert np.max(np.abs(freq - 1.0 / 9.0)) < 3.0 * se


class TestEdgeCost:
    def test_positive_even_on_zero_uncertainty(self):
        g = grid(3, 3)
        assert planner._edge_cost(np.zeros(9), g, 0, 1) > 0

    def test_reciprocal_of_trapezoid(self):
        g = grid(3, 3)
        u = np.zeros(9)
        u[0], u[1] = 0.4, 0.6
        got = planner._edge_cost(u, g, 0, 1)
        assert got == pytest.approx(1.0 / (10.0 * 0.5), rel=1e-12)

    def test_diagonal_uses_diagonal_length(self):
        g = grid(3, 3)
        u = np.ones(9)
        got = planner._edge_cost(u, g, 0, 4)
        assert got == pytest.approx(1.0 / (10.0 * np.sqrt(2.0)), rel=1e-12)
