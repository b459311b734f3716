"""Radio environment model tests: pathloss, shadowing statistics, sampling."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import channel, spatial
from aerosurvey.channel import ChannelParams, GroundTruth, Transmitter
from aerosurvey.spatial import GridSpec
import oracles
from oracles import catmull_rom_power


def make_params(**kw):
    defaults = dict(
        transmitters=(Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0),),
        frequency=2.4e9,
        pathloss_exponent=2.0,
        shadow_var=9.0,
        shadow_mean=0.0,
        corr_distance=50.0,
        fading_var=0.0,
        noise_var=0.0,
    )
    defaults.update(kw)
    return ChannelParams(**defaults)


class TestShadowCov:
    def test_zero_distance_gives_variance(self):
        assert channel.shadow_cov(0.0, make_params()) == 9.0

    def test_half_at_correlation_distance(self):
        assert channel.shadow_cov(50.0, make_params()) == pytest.approx(4.5)

    def test_quarter_at_twice_correlation_distance(self):
        assert channel.shadow_cov(100.0, make_params()) == pytest.approx(2.25)

    def test_ten_meter_value(self):
        assert channel.shadow_cov(10.0, make_params()) == pytest.approx(
            7.834955069665117, rel=1e-12
        )

    def test_vectorized(self):
        out = channel.shadow_cov(np.array([0.0, 50.0, 100.0]), make_params())
        np.testing.assert_allclose(out, [9.0, 4.5, 2.25])

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            channel.shadow_cov(-1.0, make_params())

    @given(
        d=st.floats(0.0, 500.0),
        var=st.floats(0.01, 25.0),
        corr=st.floats(1.0, 200.0),
    )
    def test_positive_and_bounded_by_variance(self, d, var, corr):
        p = make_params(shadow_var=var, corr_distance=corr)
        v = channel.shadow_cov(d, p)
        assert 0.0 < v <= var


def base_power(point, tx, params, altitude):
    return float(channel.base_powers(point, tx, params, altitude)[0])


class TestBasePower:
    def test_one_meter_reference(self):
        # 10 dBm transmit power, free-space-like exponent 2 at 2.4 GHz
        tx = Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0)
        got = base_power((0.0, 1.0), tx, make_params(), altitude=10.0)
        assert got == pytest.approx(-30.0520, abs=5e-4)

    def test_ten_meters_is_20db_down(self):
        tx = Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0)
        got = base_power((0.0, 10.0), tx, make_params(), altitude=10.0)
        assert got == pytest.approx(-50.0520, abs=5e-4)

    def test_shadow_mean_shifts_additively(self):
        tx = Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0)
        a = base_power((0.0, 7.0), tx, make_params(), 10.0)
        b = base_power((0.0, 7.0), tx, make_params(shadow_mean=3.0), 10.0)
        assert b == pytest.approx(a - 3.0, abs=1e-12)

    def test_distance_uses_altitude_difference(self):
        tx = Transmitter(position=(0.0, 0.0, 10.0), power_dbm=10.0)
        p = make_params()
        # horizontal 30 m, vertical 50-10=40 m: 3D distance 50 m
        at_50 = base_power((30.0, 0.0), tx, p, altitude=50.0)
        direct = base_power((0.0, 50.0), tx, p, altitude=10.0)
        assert at_50 == pytest.approx(direct, abs=1e-12)

    def test_zero_distance_rejected(self):
        tx = Transmitter(position=(5.0, 5.0, 20.0), power_dbm=10.0)
        with pytest.raises(ValueError):
            base_power((5.0, 5.0), tx, make_params(), altitude=20.0)

    def test_grid_field_matches_pointwise(self):
        g = GridSpec(rows=4, cols=5, spacing=10.0, altitude=20.0)
        tx = Transmitter(position=(10.0, 10.0, 10.0), power_dbm=10.0)
        p = make_params(transmitters=(tx,))
        field = channel.grid_base_powers(g, p, tx)
        assert field.shape == (20,)
        pts = spatial.grid_points(g)
        for i in (0, 7, 19):
            assert field[i] == pytest.approx(
                base_power(pts[i], tx, p, g.altitude), abs=1e-12
            )


class TestCovarianceMatrix:
    def test_symmetric_and_factorizable(self):
        g = GridSpec(rows=5, cols=4, spacing=10.0)
        cov = channel.grid_prior(g, 9.0, 50.0).dense()
        np.testing.assert_array_equal(cov, cov.T)
        jittered = cov + 1e-9 * 9.0 * np.eye(cov.shape[0])
        np.linalg.cholesky(jittered)

    def test_diagonal_is_variance(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0)
        cov = channel.grid_prior(g, 9.0, 50.0).dense()
        np.testing.assert_allclose(np.diag(cov), 9.0)

    def test_cross_cov_matches_matrix_at_grid_points(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0)
        pts = spatial.grid_points(g)
        cov = channel.grid_prior(g, 9.0, 50.0).dense()
        cross = channel.shadow_cov(oracles.pairwise_distances(pts[4], pts), make_params())
        np.testing.assert_allclose(cross[0], cov[4])

    @given(rows=st.integers(2, 6), cols=st.integers(2, 6), spacing=st.floats(1.0, 30.0))
    @settings(max_examples=30)
    def test_always_psd_after_jitter(self, rows, cols, spacing):
        g = GridSpec(rows=rows, cols=cols, spacing=spacing)
        cov = oracles.shadow_cov_matrix(spatial.grid_points(g), make_params())
        jittered = cov + 1e-9 * 9.0 * np.eye(cov.shape[0])
        np.linalg.cholesky(jittered)


class TestGridPrior:
    def test_distances_match_the_definition(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0], [-1.5, 2.0]])
        b = np.array([[3.0, 0.0], [0.0, -4.0]])
        want = np.array([[np.sqrt(np.sum((p - q) ** 2)) for q in b] for p in a])
        np.testing.assert_array_equal(oracles.pairwise_distances(a, b), want)

    def test_zero_prior_has_no_factor(self):
        # No shadowing: the covariance is zero and the ground truth builds no
        # circulant square root.
        g = GridSpec(rows=2, cols=2, spacing=10.0)
        prior = channel.grid_prior(g, 0.0, 50.0)
        np.testing.assert_array_equal(prior.dense(), 0.0)
        channel.circulant_root.cache_clear()
        p = make_params(transmitters=(Transmitter((5.0, 5.0, 10.0), 10.0),), shadow_var=0.0)
        channel.sample_ground_truth(g, p, 0)
        assert channel.circulant_root.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "rows, cols, spacing",
        [
            (30, 25, 10.0),
            (60, 50, 10.0),
            (10, 10, 10.0),
            (5, 3, 7.0),
            (1, 1, 10.0),
            (1, 7, 10.0),
            (4, 1, 10.0),
        ],
    )
    def test_table_build_equals_dense_oracle(self, rows, cols, spacing):
        # Integer grid coordinates: table offsets and pairwise differences are
        # the same floats, so the two builds agree to the bit. The cache holds
        # only the read-only table; each dense build is a new, owned array.
        g = GridSpec(rows=rows, cols=cols, spacing=spacing)
        prior = channel.grid_prior(g, 9.0, 50.0)
        assert prior.table.shape == (2 * rows - 1, 2 * cols - 1) and not prior.table.flags.writeable
        cov = prior.dense()
        np.testing.assert_array_equal(cov, oracles.dense_grid_prior(g, 9.0, 50.0))
        np.testing.assert_array_equal(cov, cov.T)
        assert cov.flags.c_contiguous and cov.flags.writeable and cov.flags.owndata
        assert prior.dense() is not cov
        np.testing.assert_array_equal(prior.diagonal(), np.diagonal(cov))
        channel.grid_prior.cache_clear()

    @pytest.mark.parametrize(
        "rows, cols, spacing",
        [(1, 1, 10.0), (1, 7, 10.0), (4, 1, 10.0), (2, 2, 10.0), (5, 3, 7.0), (10, 10, 10.0), (30, 25, 10.0)],
    )
    def test_row_blocks_equal_dense_oracle_rows(self, rows, cols, spacing):
        # One point in every cell, the last row and column included, gives
        # every tap block interpolation_taps can return; border blocks
        # repeat indices.
        g = GridSpec(rows=rows, cols=cols, spacing=spacing)
        prior = channel.grid_prior(g, 9.0, 50.0)
        cov = oracles.dense_grid_prior(g, 9.0, 50.0)
        blocks = set()
        for r in range(rows):
            for c in range(cols):
                point = (min(c + 0.5, cols - 1) * spacing, min(r + 0.5, rows - 1) * spacing)
                index, _ = channel.interpolation_taps(g, point)
                block = prior[index]
                assert block.shape == (16, g.num_points) and block.flags.c_contiguous
                np.testing.assert_array_equal(block, cov[index])
                blocks.add(tuple(index))
        assert len(blocks) == g.num_points
        assert any(len(set(b)) < 16 for b in blocks)
        channel.grid_prior.cache_clear()

    def test_rows_at_any_index_array_equal_dense_rows(self):
        # Node rows and columns are looked up per index, negative ones and
        # index arrays of any shape included, as indexing the dense array does.
        g = GridSpec(rows=5, cols=3, spacing=7.0)
        prior = channel.grid_prior(g, 9.0, 50.0)
        cov = oracles.dense_grid_prior(g, 9.0, 50.0)
        for index in (np.arange(15)[::-1], np.array([[0, 14], [7, 7]]), np.array([-1, -15, 2]), np.array(4)):
            np.testing.assert_array_equal(prior[index], cov[index])
        with pytest.raises(IndexError):
            prior[np.array([15])]
        channel.grid_prior.cache_clear()

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        spacing=st.floats(0.1, 40.0).filter(lambda v: v != int(v)),
        ox=st.floats(-1e3, 1e3).filter(lambda v: v != int(v)),
        oy=st.floats(-1e3, 1e3).filter(lambda v: v != int(v)),
    )
    @settings(max_examples=60)
    def test_table_build_is_symmetric_and_near_dense_oracle(self, rows, cols, spacing, ox, oy):
        # Off-integer coordinates: pairwise differences of node coordinates may
        # round differently from offset times spacing, by a last bit.
        g = GridSpec(rows=rows, cols=cols, spacing=spacing, origin=(ox, oy))
        dense = channel.grid_prior(g, 9.0, 50.0).dense()
        cov = oracles.dense_grid_prior(g, 9.0, 50.0)
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_allclose(dense, cov, rtol=1e-13, atol=0.0)

    def test_cold_build_holds_no_extra_dense_temporaries(self):
        # The build holds the (2R - 1) x (2C - 1) kernel table and the
        # temporaries of the kernel's arithmetic, each the table's size: no
        # N x N array, 3000 times larger here.
        g = GridSpec(rows=60, cols=50, spacing=10.0)
        channel.grid_prior.cache_clear()
        tracemalloc.start()
        try:
            table = channel.grid_prior(g, 9.0, 50.0).table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            channel.grid_prior.cache_clear()
        assert peak < 4 * table.nbytes, f"peak {peak / 2**10:.1f} KiB"

    def test_non_finite_prior_rejected(self):
        # An infinite variance, and one within rounding of the largest float.
        g = GridSpec(rows=3, cols=4, spacing=10.0)
        for shadow_var in (np.inf, np.finfo(float).max):
            with pytest.raises(ValueError):
                channel.grid_prior(g, shadow_var, 50.0)

    def test_ground_truth_builds_no_covariance(self):
        # The ground truth reads only the circulant root; the estimator alone
        # builds the prior's kernel table, once.
        from aerosurvey import estimator

        g = GridSpec(rows=5, cols=3, spacing=7.0)
        p = make_params(corr_distance=41.0)
        channel.grid_prior.cache_clear()
        channel.circulant_root.cache_clear()
        channel.sample_ground_truth(g, p, 0)
        channel.sample_ground_truth(g, p, 1)
        assert channel.grid_prior.cache_info().currsize == 0
        info = channel.circulant_root.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        estimator.SurveyPosterior.from_grid(g, p)
        info = channel.grid_prior.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_cache_is_bounded(self):
        g = GridSpec(rows=2, cols=2, spacing=10.0)
        for corr in range(1, 20):
            channel.grid_prior(g, 9.0, float(corr))
        assert channel.grid_prior.cache_info().currsize <= 4


TORUS_GRIDS = [
    GridSpec(rows=10, cols=10, spacing=10.0),
    GridSpec(rows=6, cols=5, spacing=10.0),
    GridSpec(rows=3, cols=17, spacing=7.0),
    GridSpec(rows=30, cols=25, spacing=10.0),
    GridSpec(rows=1, cols=9, spacing=10.0),
    GridSpec(rows=4, cols=1, spacing=10.0),
    GridSpec(rows=2, cols=2, spacing=10.0),
    GridSpec(rows=1, cols=1, spacing=10.0),
]


class TestCirculantRoot:
    def test_torus_row_equals_kernel_table(self):
        # Every offset between two grid points, read the short way round the
        # torus, is the same float as in the dense covariance.
        for g in TORUS_GRIDS:
            root = channel.circulant_root(g, 50.0)
            p, q = root.shape
            row = channel._torus_kernel(root.shape, g.spacing, make_params())
            cov = channel.grid_prior(g, 9.0, 50.0).dense().reshape(g.rows, g.cols, g.rows, g.cols)
            for dr in range(1 - g.rows, g.rows):
                for dc in range(1 - g.cols, g.cols):
                    r0, c0 = max(0, -dr), max(0, -dc)
                    assert row[dr % p, dc % q] == cov[r0, c0, r0 + dr, c0 + dc], (g, dr, dc)

    def test_root_reproduces_torus_kernel(self):
        for g in TORUS_GRIDS:
            root = channel.circulant_root(g, 50.0)
            row = channel._torus_kernel(root.shape, g.spacing, make_params())
            assert not root.flags.writeable and np.all(root >= 0.0)
            np.testing.assert_allclose(9.0 * np.fft.ifft2(root**2).real, row, rtol=0, atol=1e-12 * 9.0)

    @pytest.mark.parametrize(
        "rows, cols, corr, shape",
        [
            (30, 25, 50.0, (58, 48)),
            (60, 50, 50.0, (118, 98)),
            (10, 10, 50.0, (72, 72)),
            (6, 5, 50.0, (80, 64)),
            (1, 9, 1e6, (1, 16)),
            (2, 2, 1e6, (2, 2)),
            (1, 1, 50.0, (1, 1)),
        ],
    )
    def test_smallest_valid_doubling_of_the_minimal_torus(self, rows, cols, corr, shape):
        # Minimal on the default grids, padded 4x at 10 x 10 and 8x at 6 x 5;
        # one-dimensional and 2 x 2 grids take any correlation length.
        assert channel.circulant_root(GridSpec(rows=rows, cols=cols, spacing=10.0), corr).shape == shape

    @pytest.mark.parametrize(
        "grid, runs",
        [
            (GridSpec(rows=1, cols=9, spacing=10.0), 1000),
            (GridSpec(rows=2, cols=2, spacing=10.0), 1000),
            (GridSpec(rows=10, cols=10, spacing=10.0), 1000),
            (GridSpec(rows=3, cols=17, spacing=7.0), 300),
        ],
        ids=["1x9", "2x2", "10x10", "3x17"],
    )
    def test_fields_match_the_covariance_within_three_standard_errors(self, grid, runs):
        # Two transmitters per draw: their fields are the real and imaginary
        # parts of one FFT, so each must have the grid covariance and the two
        # must be uncorrelated. Checked in the style of acceptance 3, at 3
        # standard errors, between the corner and itself, its neighbour along
        # each axis and the far corner: the shortest and longest lags. (Over
        # all 5050 entries of the 10 x 10 grid, exact draws exceed 3 standard
        # errors somewhere for about half of all seeds.)
        probes = sorted({0, min(1, grid.cols - 1), min(grid.cols, grid.num_points - 1), grid.num_points - 1})
        txs = (Transmitter((1e6, 1e6, 10.0), 10.0), Transmitter((-1e6, 1e6, 10.0), 10.0))
        p = make_params(transmitters=txs)
        base = np.vstack([channel.grid_base_powers(grid, p, tx) for tx in txs])
        rng = np.random.default_rng(3)
        draws = np.empty((2, runs, grid.num_points))
        for i in range(runs):
            draws[:, i] = base - channel.sample_ground_truth(grid, p, rng).powers
        cov = channel.grid_prior(grid, 9.0, 50.0).dense()
        expected = cov[0, probes]
        var_products = cov[0, 0] * np.diag(cov)[probes]
        se = np.sqrt((var_products + expected**2) / runs)
        for k in range(2):
            sample = draws[k, :, 0] @ draws[k][:, probes] / runs
            worst = float(np.max(np.abs(sample - expected) / se))
            assert worst < 3.0, f"field {k}: worst entry at {worst:.2f} standard errors"
        cross = draws[0, :, 0] @ draws[1][:, probes] / runs
        worst = float(np.max(np.abs(cross) / np.sqrt(var_products / runs)))
        assert worst < 3.0, f"cross-covariance at {worst:.2f} standard errors"


class TestSampleGroundTruth:
    def test_draw_does_not_depend_on_blas_threads(self):
        # The draw makes no BLAS call, so one and two OpenBLAS threads give
        # the same bytes, on the default grid and on the 60 x 50 one.
        script = (
            "import hashlib\n"
            "from aerosurvey import channel\n"
            "from aerosurvey.spatial import GridSpec\n"
            "for rows, cols in ((30, 25), (60, 50)):\n"
            "    g = GridSpec(rows=rows, cols=cols, spacing=10.0, altitude=20.0)\n"
            "    p = channel.ChannelParams(channel.draw_transmitters(g, 2, 10.0, 10.0, 5))\n"
            "    powers = channel.sample_ground_truth(g, p, 7).powers\n"
            "    print(hashlib.sha256(powers.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(channel.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert len(outputs[0]) == 2 and outputs[0] == outputs[1]

    @given(
        shape=st.one_of(
            st.tuples(st.just(1), st.integers(1, 12)),
            st.tuples(st.integers(1, 12), st.just(1)),
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
        ),
        count=st.integers(1, 3),
        corr=st.sampled_from((20.0, 50.0, 120.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80)
    def test_shadowing_equals_full_torus_fft_oracle(self, shape, count, corr, seed):
        # Only the grid's corner of the torus FFT is computed; it must equal
        # the corner of the whole fft2 byte for byte, line grids and an
        # unused half of the last complex field (odd counts) included.
        g = GridSpec(rows=shape[0], cols=shape[1], spacing=10.0)
        p = make_params(transmitters=(Transmitter((1.0, 2.0, 10.0), 10.0),) * count, corr_distance=corr)
        got = channel._shadowing(g, p, np.random.default_rng(seed))
        want = oracles.shadowing(g, p, np.random.default_rng(seed))
        assert got.shape == want.shape == (count, g.num_points)
        assert got.tobytes() == want.tobytes()

    def test_truth_is_link_budget_minus_shadowing_plus_fading(self):
        g = GridSpec(rows=7, cols=5, spacing=10.0, altitude=20.0)
        txs = tuple(Transmitter((3.0 + 11 * k, 4.0, 10.0), 10.0 + k) for k in range(3))
        p = make_params(transmitters=txs, fading_var=1.5)
        gt = channel.sample_ground_truth(g, p, 9)
        gen = np.random.default_rng(9)
        shadow = oracles.shadowing(g, p, gen)
        for k, tx in enumerate(txs):
            fading = np.sqrt(1.5) * gen.standard_normal(g.num_points)
            want = channel.grid_base_powers(g, p, tx) - shadow[k] + fading
            assert gt.powers[k].tobytes() == want.tobytes()

    def test_link_budgets_are_one_cached_read_only_entry(self):
        g = GridSpec(rows=4, cols=6, spacing=10.0, altitude=20.0)
        txs = (Transmitter((5.0, 5.0, 10.0), 10.0), Transmitter((31.0, 12.0, 10.0), 7.0))
        p = make_params(transmitters=txs)
        channel.link_budgets.cache_clear()
        budgets = channel.link_budgets(g, p)
        assert channel.link_budgets(g, make_params(transmitters=txs)) is budgets
        with pytest.raises(ValueError, match="read-only"):
            budgets[0, 0] = 0.0
        for k, tx in enumerate(txs):
            assert budgets[k].tobytes() == channel.grid_base_powers(g, p, tx).tobytes()
        # The next channel's budgets replace this one's.
        channel.link_budgets(g, make_params(transmitters=txs[:1]))
        assert channel.link_budgets.cache_info().currsize == 1
        assert channel.link_budgets(g, p) is not budgets

    def test_noiseless_equals_base(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        tx = Transmitter((15.0, 15.0, 10.0), 10.0)
        p = make_params(transmitters=(tx,), shadow_var=0.0, fading_var=0.0)
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        np.testing.assert_array_equal(gt.powers[0], channel.grid_base_powers(g, p, tx))

    def test_same_seed_reproduces(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        p = make_params(transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0),))
        a = channel.sample_ground_truth(g, p, np.random.default_rng(42))
        b = channel.sample_ground_truth(g, p, np.random.default_rng(42))
        np.testing.assert_array_equal(a.powers, b.powers)

    def test_empirical_shadowing_mean(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0, altitude=20.0)
        tx = Transmitter((100.0, 100.0, 10.0), 10.0)
        p = make_params(transmitters=(tx,))
        base = channel.grid_base_powers(g, p, tx)
        rng = np.random.default_rng(7)
        runs = 2000
        acc = np.zeros(g.num_points)
        for _ in range(runs):
            gt = channel.sample_ground_truth(g, p, rng)
            acc += gt.powers[0] - base
        mean = acc / runs
        # sample mean of a zero-mean field: bound 3*sigma/sqrt(runs)
        bound = 3.0 * 3.0 / np.sqrt(runs)
        assert np.max(np.abs(mean)) < bound

    def test_empirical_shadowing_covariance_at_10m(self):
        g = GridSpec(rows=6, cols=5, spacing=10.0, altitude=20.0)
        tx = Transmitter((1000.0, 1000.0, 10.0), 10.0)
        p = make_params(transmitters=(tx,))
        base = channel.grid_base_powers(g, p, tx)
        rng = np.random.default_rng(11)
        runs = 2000
        draws = np.empty((runs, g.num_points))
        for i in range(runs):
            draws[i] = channel.sample_ground_truth(g, p, rng).powers[0] - base
        # neighboring points 10 m apart
        sample_cov = float(np.mean(draws[:, 0] * draws[:, 1]))
        expected = 9.0 * 2.0 ** (-10.0 / 50.0)
        assert expected == pytest.approx(7.834955069665117, rel=1e-12)
        se = np.sqrt((81.0 + expected**2) / runs)
        assert abs(sample_cov - expected) < 3.0 * se


class TestInterpolationTaps:
    def test_weights_sum_to_one(self):
        g = GridSpec(rows=5, cols=7, spacing=3.0, origin=(1.0, -2.0))
        rng = np.random.default_rng(8)
        for _ in range(500):
            point = (rng.uniform(1.0, 19.0), rng.uniform(-2.0, 10.0))
            index, weights = channel.interpolation_taps(g, point)
            assert index.shape == weights.shape == (16,)
            assert np.all((0 <= index) & (index < g.num_points))
            assert abs(weights.sum() - 1.0) <= 1e-15

    def test_unit_vector_on_nodes(self):
        g = GridSpec(rows=4, cols=3, spacing=10.0)
        for i, point in enumerate(spatial.grid_points(g)):
            index, weights = channel.interpolation_taps(g, point)
            assert np.count_nonzero(weights == 1.0) == 1
            assert np.count_nonzero(weights == 0.0) == 15
            assert index[weights == 1.0][0] == i

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(rows=30, cols=25, spacing=10.0),
            GridSpec(rows=10, cols=10, spacing=3.0, origin=(1.5, -2.25)),
            GridSpec(rows=1, cols=7, spacing=10.0),
            GridSpec(rows=4, cols=1, spacing=10.0),
        ],
    )
    def test_matches_numpy_reference_exactly(self, grid):
        # Random points, every node, the corners, and points 1e-10 outside the
        # rectangle that the bounds tolerance still accepts.
        xmin, ymin, xmax, ymax = grid.bounds()
        rng = np.random.default_rng(11)
        points = [tuple(p) for p in rng.uniform((xmin, ymin), (xmax, ymax), size=(500, 2))]
        points += [tuple(p) for p in spatial.grid_points(grid)]
        edges_x = (xmin, xmax, xmin - 1e-10, xmax + 1e-10)
        edges_y = (ymin, ymax, ymin - 1e-10, ymax + 1e-10)
        points += [(x, y) for x in edges_x for y in edges_y]
        for point in points:
            index, weights = channel.interpolation_taps(grid, point)
            want_index, want_weights = oracles.interpolation_taps(grid, point)
            assert index.dtype == want_index.dtype and weights.dtype == want_weights.dtype
            np.testing.assert_array_equal(index, want_index)
            np.testing.assert_array_equal(weights, want_weights)

    @settings(max_examples=120)
    @given(
        shape=st.one_of(
            st.tuples(st.just(1), st.integers(1, 12)),
            st.tuples(st.integers(1, 12), st.just(1)),
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
        ),
        spacing=st.sampled_from([1.0, 3.0, 7.3, 10.0]),
        origin=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
        fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=20),
    )
    def test_same_bytes_as_the_scalar_oracle(self, shape, spacing, origin, fractions):
        # Random points, every node, the four edges and the four corners, the
        # far corner (xmax, ymax) among them.
        g = GridSpec(rows=shape[0], cols=shape[1], spacing=spacing, origin=origin)
        xmin, ymin, xmax, ymax = g.bounds()
        points = [(xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin)) for fx, fy in fractions]
        points += [tuple(p) for p in spatial.grid_points(g)]
        x, y = points[0]
        points += [(x, ymin), (x, ymax), (xmin, y), (xmax, y)]
        points += [(xmin, ymin), (xmax, ymin), (xmin, ymax), (xmax, ymax)]
        for point in points:
            index, weights = channel.interpolation_taps(g, point)
            want_index, want_weights = oracles.scalar_interpolation_taps(g, point)
            assert index.dtype == want_index.dtype and weights.dtype == want_weights.dtype
            assert index.tobytes() == want_index.tobytes(), point
            assert weights.tobytes() == want_weights.tobytes(), point

    def test_outside_bounds_rejected(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0)
        for point in ((-5.0, 0.0), (0.0, 20.1), (float("nan"), 5.0)):
            with pytest.raises(ValueError):
                channel.interpolation_taps(g, point)


class TestTruePower:
    def test_exact_at_grid_points(self):
        g = GridSpec(rows=5, cols=6, spacing=10.0, altitude=20.0)
        p = make_params(transmitters=(Transmitter((25.0, 25.0, 10.0), 10.0),))
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(3))
        pts = spatial.grid_points(g)
        for i in range(g.num_points):
            got = channel.true_power(gt, pts[i])
            assert got[0] == pytest.approx(gt.powers[0, i], abs=1e-9)

    def test_constant_field_reproduced(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0)
        gt = GroundTruth(grid=g, powers=np.full((1, 16), 7.0))
        for x, y in [(5.0, 5.0), (12.3, 17.9), (0.0, 30.0), (29.9, 0.1)]:
            assert channel.true_power(gt, (x, y))[0] == pytest.approx(7.0, abs=1e-12)

    def test_linear_field_midpoint_is_mean(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0)
        pts = spatial.grid_points(g)
        vals = 0.5 * pts[:, 0] + 2.0  # linear in x only
        gt = GroundTruth(grid=g, powers=vals[None, :])
        got = channel.true_power(gt, (15.0, 10.0))[0]
        assert got == pytest.approx(0.5 * 15.0 + 2.0, abs=1e-9)

    def test_matches_separable_horner_reference(self):
        g = GridSpec(rows=5, cols=6, spacing=10.0, altitude=20.0, origin=(-3.0, 4.0))
        p = make_params(
            transmitters=(
                Transmitter((25.0, 25.0, 10.0), 10.0),
                Transmitter((5.0, 40.0, 10.0), 7.0),
            ),
            fading_var=1.5,
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        points = [(rng.uniform(-3.0, 47.0), rng.uniform(4.0, 44.0)) for _ in range(200)]
        points += [(-3.0, 4.0), (47.0, 44.0), (47.0, 10.0), (20.0, 44.0)]
        for point in points:
            want = catmull_rom_power(g, gt.powers, point)
            np.testing.assert_allclose(channel.true_power(gt, point), want, rtol=0, atol=1e-12)

    def test_outside_bounds_rejected(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0)
        gt = GroundTruth(grid=g, powers=np.zeros((1, 9)))
        with pytest.raises(ValueError):
            channel.true_power(gt, (-5.0, 0.0))


class TestTakeMeasurement:
    def test_noiseless_measurement_is_exact(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0),), noise_var=0.0
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        m = channel.take_measurement(gt, (12.0, 8.0), p, np.random.default_rng(1))
        np.testing.assert_allclose(m.rss, channel.true_power(gt, (12.0, 8.0)))

    def test_seeded_noise_reproducible(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0),), noise_var=0.25
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        a = channel.take_measurement(gt, (5.0, 5.0), p, np.random.default_rng(9))
        b = channel.take_measurement(gt, (5.0, 5.0), p, np.random.default_rng(9))
        assert a.rss == b.rss

    def test_given_taps_change_nothing(self):
        g = GridSpec(rows=4, cols=4, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0), Transmitter((2.0, 28.0, 10.0), 8.0)),
            noise_var=0.25,
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        point = (12.5, 8.25)
        taps = channel.interpolation_taps(g, point)
        a = channel.take_measurement(gt, point, p, np.random.default_rng(9))
        b = channel.take_measurement(gt, point, p, np.random.default_rng(9), taps=taps)
        assert a == b

    def test_noise_variance_statistics(self):
        g = GridSpec(rows=3, cols=3, spacing=10.0, altitude=20.0)
        p = make_params(
            transmitters=(Transmitter((15.0, 15.0, 10.0), 10.0),), noise_var=4.0
        )
        gt = channel.sample_ground_truth(g, p, np.random.default_rng(0))
        rng = np.random.default_rng(21)
        n = 10_000
        vals = np.array(
            [channel.take_measurement(gt, (5.0, 5.0), p, rng).rss[0] for _ in range(n)]
        )
        sample_var = float(np.var(vals))
        # variance of the variance estimator for a normal sample: 2 var^2 / n
        se = np.sqrt(2.0 * 16.0 / n)
        assert abs(sample_var - 4.0) < 3.0 * se


class TestDrawTransmitters:
    def test_positions_inside_bounds_at_height(self):
        g = GridSpec(rows=5, cols=7, spacing=10.0)
        txs = channel.draw_transmitters(g, 4, 10.0, 13.0, np.random.default_rng(5))
        assert len(txs) == 4
        xmin, ymin, xmax, ymax = g.bounds()
        for tx in txs:
            x, y, z = tx.position
            assert xmin <= x <= xmax and ymin <= y <= ymax
            assert z == 10.0
            assert tx.power_dbm == 13.0

    def test_seeded_reproducible(self):
        g = GridSpec(rows=5, cols=7, spacing=10.0)
        a = channel.draw_transmitters(g, 2, 10.0, 10.0, np.random.default_rng(5))
        b = channel.draw_transmitters(g, 2, 10.0, 10.0, np.random.default_rng(5))
        assert a == b


class TestChannelParamsValidation:
    def test_rejects_negative_variances(self):
        with pytest.raises(ValueError):
            make_params(shadow_var=-1.0)
        with pytest.raises(ValueError):
            make_params(fading_var=-0.1)
        with pytest.raises(ValueError):
            make_params(noise_var=-0.1)

    def test_rejects_infinite_variances(self):
        for name in ("shadow_var", "fading_var", "noise_var"):
            with pytest.raises(ValueError, match=name):
                make_params(**{name: np.inf})

    def test_shadow_variance_needs_headroom_below_the_largest_float(self):
        with pytest.raises(ValueError, match="shadow_var"):
            make_params(shadow_var=np.finfo(float).max)
        make_params(shadow_var=1e308)

    def test_rejects_bad_frequency_and_exponent(self):
        with pytest.raises(ValueError):
            make_params(frequency=0.0)
        with pytest.raises(ValueError):
            make_params(pathloss_exponent=0.0)
        with pytest.raises(ValueError):
            make_params(corr_distance=0.0)
