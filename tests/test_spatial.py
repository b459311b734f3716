"""Grid geometry, king-move neighbourhood, and path sampling tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import spatial
from aerosurvey.spatial import GridSpec, Waypoint
from oracles import king_neighbors, sample_path


def grid(rows=3, cols=3, spacing=10.0, **kw):
    return GridSpec(rows=rows, cols=cols, spacing=spacing, **kw)


class TestGridSpec:
    def test_num_points(self):
        assert grid(30, 25).num_points == 750

    def test_bounds(self):
        g = grid(3, 4, 10.0, origin=(5.0, -5.0))
        assert g.bounds() == (5.0, -5.0, 35.0, 15.0)

    def test_contains_interior_and_edge(self):
        g = grid()
        assert g.contains(0.0, 0.0)
        assert g.contains(20.0, 20.0)
        assert g.contains(13.7, 4.2)
        assert not g.contains(-1.0, 0.0)
        assert not g.contains(0.0, 20.1)

    def test_contains_up_to_the_bounds_slack_and_not_a_step_past_it(self):
        g = grid(3, 4, 10.0, origin=(5.0, -7.0))
        xmin, ymin, xmax, ymax = g.bounds()
        tol = spatial._BOUNDS_TOL
        lo_x, hi_x, lo_y, hi_y = xmin - tol, xmax + tol, ymin - tol, ymax + tol
        x, y = 15.0, 3.0  # inside along the other axis
        for edge, past in [
            ((lo_x, y), (np.nextafter(lo_x, -np.inf), y)),
            ((hi_x, y), (np.nextafter(hi_x, np.inf), y)),
            ((x, lo_y), (x, np.nextafter(lo_y, -np.inf))),
            ((x, hi_y), (x, np.nextafter(hi_y, np.inf))),
        ]:
            assert g.contains(*edge), edge
            assert not g.contains(*past), past

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(rows=0, cols=3, spacing=10.0)
        with pytest.raises(ValueError):
            GridSpec(rows=3, cols=3, spacing=0.0)
        with pytest.raises(ValueError):
            GridSpec(rows=3, cols=3, spacing=10.0, altitude=-1.0)


class TestIndexing:
    def test_origin_index(self):
        np.testing.assert_array_equal(spatial.index_to_point(grid(), 0), (0.0, 0.0))

    def test_center_of_3x3(self):
        np.testing.assert_array_equal(spatial.index_to_point(grid(), 4), (10.0, 10.0))

    def test_last_index_of_survey_grid(self):
        g = grid(30, 25, 10.0)
        np.testing.assert_array_equal(
            spatial.index_to_point(g, g.num_points - 1), (240.0, 290.0)
        )

    def test_row_major_order(self):
        g = grid(2, 3, 10.0)
        pts = [tuple(spatial.index_to_point(g, i)) for i in range(6)]
        assert pts == [(0, 0), (10, 0), (20, 0), (0, 10), (10, 10), (20, 10)]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            spatial.index_to_point(grid(), 9)
        with pytest.raises(IndexError):
            spatial.index_to_point(grid(), -1)

    def test_point_to_index_rounds_to_nearest(self):
        g = grid()
        assert spatial.point_to_index(g, (10.0, 10.0)) == 4
        assert spatial.point_to_index(g, (12.0, 9.0)) == 4
        assert spatial.point_to_index(g, (21.0, 21.0)) == 8
        # Outside the grid the nearest node is on its edge.
        assert spatial.point_to_index(g, (-50.0, 500.0)) == 6
        assert spatial.point_to_index(g, (500.0, -50.0)) == 2

    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        spacing=st.floats(0.5, 50.0),
        ox=st.floats(-100.0, 100.0),
        oy=st.floats(-100.0, 100.0),
    )
    def test_index_point_roundtrip(self, rows, cols, spacing, ox, oy):
        g = GridSpec(rows=rows, cols=cols, spacing=spacing, origin=(ox, oy))
        for i in range(g.num_points):
            assert spatial.point_to_index(g, spatial.index_to_point(g, i)) == i

    def test_grid_points_matches_indexing(self):
        g = grid(4, 5, 7.5, origin=(1.0, 2.0))
        pts = spatial.grid_points(g)
        assert pts.shape == (20, 2)
        for i in range(20):
            np.testing.assert_array_equal(pts[i], spatial.index_to_point(g, i))


    @pytest.mark.parametrize("rows, cols", [(4, 5), (1, 7), (6, 1), (1, 1), (60, 50)])
    def test_grid_points_cached_read_only_and_equal_to_meshgrid(self, rows, cols):
        g = grid(rows, cols, 0.7, origin=(0.1, -3.3))
        pts = spatial.grid_points(g)
        assert spatial.grid_points(grid(rows, cols, 0.7, origin=(0.1, -3.3))) is pts
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 0.0
        xx, yy = np.meshgrid(0.1 + np.arange(cols) * 0.7, -3.3 + np.arange(rows) * 0.7)
        assert pts.tobytes() == np.column_stack([xx.ravel(), yy.ravel()]).tobytes()


class TestMotionGraph:
    """The king-move graph the min-cost planner walks, as ``oracles.king_neighbors`` lists it."""

    def test_2x2_complete(self):
        g = grid(2, 2)
        assert all(len(king_neighbors(g, i)) == 3 for i in range(4))

    def test_3x3_center_has_8(self):
        assert len(king_neighbors(grid(), 4)) == 8

    def test_3x3_edge_midpoint_has_5(self):
        assert len(king_neighbors(grid(), 1)) == 5
        assert len(king_neighbors(grid(), 3)) == 5

    def test_3x3_corner_has_3(self):
        assert len(king_neighbors(grid(), 0)) == 3

    def test_single_row_has_line_moves_only(self):
        g = grid(1, 5)
        assert king_neighbors(g, 0) == [1]
        assert king_neighbors(g, 2) == [1, 3]
        assert king_neighbors(g, 4) == [3]

    @given(rows=st.integers(1, 8), cols=st.integers(1, 8))
    def test_undirected(self, rows, cols):
        g = grid(rows, cols)
        for u in range(g.num_points):
            for v in king_neighbors(g, u):
                assert u in king_neighbors(g, v)

    @given(rows=st.integers(1, 8), cols=st.integers(1, 8))
    def test_no_self_loops_or_duplicates(self, rows, cols):
        g = grid(rows, cols)
        for u in range(g.num_points):
            nbrs = king_neighbors(g, u)
            assert u not in nbrs
            assert nbrs == sorted(set(nbrs))


class TestSamplePath:
    def test_straight_segment(self):
        out = sample_path([Waypoint(0, 0), Waypoint(12, 0)], 5.0)
        np.testing.assert_allclose(out, [(0, 0), (5, 0), (10, 0)])

    def test_residual_carries_across_turn(self):
        out = sample_path(
            [Waypoint(0, 0), Waypoint(4, 0), Waypoint(0, 0)], 5.0
        )
        np.testing.assert_allclose(out, [(0, 0), (3, 0)])

    def test_single_waypoint(self):
        out = sample_path([Waypoint(0, 0)], 5.0)
        np.testing.assert_allclose(out, [(0, 0)])

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            sample_path([Waypoint(0, 0), Waypoint(1, 0)], 0.0)

    @settings(max_examples=60)
    @given(
        coords=st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
            min_size=2,
            max_size=6,
        ),
        delta=st.floats(0.3, 8.0),
    )
    def test_consecutive_samples_are_delta_apart_in_arc_length(self, coords, delta):
        pts = [Waypoint(x, y) for x, y in coords]
        total = sum(
            math.dist((pts[i].x, pts[i].y), (pts[i + 1].x, pts[i + 1].y))
            for i in range(len(pts) - 1)
        )
        out = sample_path(pts, delta)
        # the first sample sits at the start; each subsequent one lands delta
        # further along the polyline
        expected = 1 + int((total + 1e-9) // delta)
        assert len(out) == expected
        walked = np.asarray(out[0], dtype=float)
        assert np.allclose(walked, (pts[0].x, pts[0].y))

    def test_spacing_along_known_polyline(self):
        pts = [Waypoint(0, 0), Waypoint(10, 0), Waypoint(10, 10), Waypoint(0, 10)]
        out = sample_path(pts, 4.0)
        # arc positions 0, 4, 8, 12, 16, 20, 24, 28
        expected = [
            (0, 0), (4, 0), (8, 0), (10, 2), (10, 6), (10, 10), (6, 10), (2, 10),
        ]
        np.testing.assert_allclose(out, expected)
