import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from oracles import dense_fbm_lift, grid_index, lift_smooth, restrict, shift
from roughcm import (CovarianceFactorizationError, Grid, coarsen,
                     lift_brownian, lift_fbm, unit_block, validate)
from roughcm.roughpath import _chen_defect, _fbm_factor


def circle_lift(n=64, refinement=16):
    t = np.linspace(0.0, 1.0, n * refinement + 1)
    samples = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=-1)
    return lift_smooth(samples, Grid(0.0, 1.0, n), gamma=0.45)


class TestGrid:
    def test_nodes_and_step(self):
        g = Grid(0.0, 2.0, 4)
        assert g.h == 0.5
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_index_alignment(self):
        g = Grid(0.0, 1.0, 8)
        assert grid_index(g, 0.375) == 3
        with pytest.raises(ValueError):
            grid_index(g, 0.3)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, False, 0, -3],
                             ids=["fraction", "float", "true", "false", "zero", "negative"])
    def test_rejects_bad_cell_count(self, n):
        with pytest.raises(ValueError, match="positive integer cell count"):
            Grid(0.0, 1.0, n)

    @pytest.mark.parametrize("t0, t1", [(-np.inf, 0.0), (0.0, np.inf), (np.nan, 1.0),
                                        (0.0, np.nan)],
                             ids=["-inf", "inf", "nan-t0", "nan-t1"])
    def test_rejects_non_finite_endpoint(self, t0, t1):
        with pytest.raises(ValueError, match="finite"):
            Grid(t0, t1, 4)

    def test_accepts_numpy_integer(self):
        assert Grid(0.0, 1.0, np.int64(4)).h == 0.25


class TestLiftSmooth:
    def test_endpoint_increment(self):
        rp = circle_lift()
        assert np.allclose(rp.W[rp.n] - rp.W[0], [0.0, 0.0], atol=1e-12)

    def test_second_level_against_quadrature(self):
        # WW[a, b] = int_0^1 (W^a - W^a_0) dW^b for the circle path
        rp = circle_lift(refinement=64)
        w = [np.cos, np.sin]
        dw = [lambda t: -2 * np.pi * np.sin(2 * np.pi * t),
              lambda t: 2 * np.pi * np.cos(2 * np.pi * t)]
        for a in range(2):
            for b in range(2):
                ref, _ = quad(lambda t: (w[a](2 * np.pi * t) - w[a](0)) * dw[b](t),
                              0.0, 1.0, limit=200)
                assert abs(rp.second(0, rp.n)[a, b] - ref) < 1e-5

    def test_signed_area(self):
        rp = circle_lift(n=128)
        anti = 0.5 * (rp.second(0, rp.n)[0, 1] - rp.second(0, rp.n)[1, 0])
        assert abs(anti - np.pi) < 1e-3

    def test_requires_fine_subdivision(self):
        samples = np.zeros((4 * 4 + 1, 1))
        with pytest.raises(ValueError):
            lift_smooth(samples, Grid(0.0, 1.0, 4), gamma=0.45)


class TestDefects:
    @pytest.mark.parametrize("make", [
        lambda: circle_lift(n=256),
        lambda: lift_brownian(0, Grid(0.0, 1.0, 256)),
        lambda: lift_brownian(1, Grid(0.0, 1.0, 256), d=3),
        lambda: lift_fbm(2, 0.45, Grid(0.0, 1.0, 256)),
    ])
    def test_chen_and_geometry(self, make):
        rep = validate(make())
        assert rep["chen_defect_max"] <= 1e-10
        assert rep["geometry_defect_max"] <= 1e-10

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            lift_brownian(0, Grid(0.0, 1.0, 8), gamma=0.6)


class TestBrownian:
    def test_one_dim_cells(self):
        rp = lift_brownian(5, Grid(0.0, 1.0, 64))
        dW = np.diff(rp.W[:, 0])
        assert np.allclose(rp.WW[:, 0, 0], 0.5 * dW**2)

    def test_reproducible(self):
        a = lift_brownian(9, Grid(0.0, 1.0, 32), d=2)
        b = lift_brownian(9, Grid(0.0, 1.0, 32), d=2)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.WW, b.WW)

    @pytest.mark.parametrize("d", [True, 2.0, 0], ids=["bool", "float", "zero"])
    def test_rejects_bad_channel_count(self, d):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            lift_brownian(0, Grid(0.0, 1.0, 8), d=d)

    def test_increment_scale(self):
        # W(1) over many seeds is standard normal
        w1 = [lift_brownian(s, Grid(0.0, 1.0, 16)).W[-1, 0] for s in range(400)]
        assert kstest(w1, "norm").pvalue > 1e-3


class TestFbm:
    def test_half_matches_brownian_law(self):
        w1 = [lift_fbm(s, 0.5, Grid(0.0, 1.0, 16)).W[-1, 0] for s in range(200)]
        assert kstest(w1, "norm").pvalue > 1e-3

    def test_variance_exponent(self):
        H = 0.4
        vals = np.array([lift_fbm(s, H, Grid(0.0, 1.0, 8)).W[-1, 0]
                         for s in range(300)])
        # Var W(1) = 1 for the exact covariance at any H
        assert abs(np.var(vals) - 1.0) < 0.25

    @pytest.mark.parametrize("seed, H, grid, level", [
        (0, 0.34, Grid(0.0, 1.0, 64), 0),
        (1, 0.4, Grid(0.0, 1.0, 32), 1),
        (2, 0.5, Grid(-2.0, 0.0, 64), 2),
        (3, 0.4, Grid(-3.0, 0.0, 100), 2),
        (4, 0.34, Grid(-2.0, 0.0, 64), 3),
        (5, 0.45, Grid(-1.0, 0.0, 37), 3),
        (6, 0.5, Grid(-4.0, 0.0, 128), 3),
    ], ids=["m64-l0", "m64-l1", "m256", "m400", "m512", "m296", "m1024"])
    def test_matches_dense_oracle(self, seed, H, grid, level):
        # neither the row-block lower-triangle covariance nor the memoised
        # factor changes a bit of the lift
        _fbm_factor.cache_clear()
        cold, warm = lift_fbm(seed, H, grid, level), lift_fbm(seed, H, grid, level)
        assert _fbm_factor.cache_info().hits == 1
        ref = dense_fbm_lift(seed, H, grid, level)
        for rp in (cold, warm):
            assert np.array_equal(rp.W, ref.W) and np.array_equal(rp.WW, ref.WW)

    @pytest.mark.parametrize("n", [5, 300])
    def test_cholesky_reads_lower_triangle_only(self, n):
        # lift_fbm relies on this: it leaves most of the strict upper triangle zero
        B = np.random.default_rng(n).standard_normal((n, n))
        A = B @ B.T + n * np.eye(n)
        A_lower = A.copy()
        A_lower[np.triu_indices(n, 1)] = np.nan
        assert np.array_equal(np.linalg.cholesky(A), np.linalg.cholesky(A_lower))

    def test_covariance_memory(self):
        # one m x m covariance plus its factor; the meshgrid build held 5 m x m arrays
        grid, m = Grid(-8.0, 0.0, 256), 2048
        lift_fbm(1, 0.4, grid, 3)
        _fbm_factor.cache_clear()
        tracemalloc.start()
        try:
            lift_fbm(1, 0.4, grid, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * m * m

    def test_warm_lift_builds_no_covariance(self):
        # a lift of another seed on the same (H, grid, level) reuses the factor
        grid, m = Grid(-8.0, 0.0, 256), 2048
        lift_fbm(1, 0.4, grid, 3)
        tracemalloc.start()
        try:
            lift_fbm(2, 0.4, grid, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * m * m

    @pytest.mark.parametrize("H, grid, level", [
        (0.45, Grid(0.0, 1.0, 16), 2),
        (0.4, Grid(0.0, 1.0, 8), 2),
        (0.4, Grid(0.0, 2.0, 16), 2),
        (0.4, Grid(0.0, 1.0, 16), 1),
    ], ids=["hurst", "cells", "length", "level"])
    def test_factor_memo_has_one_slot(self, H, grid, level):
        # other seeds and shifted windows hit; other parameters replace the slot
        _fbm_factor.cache_clear()
        base = Grid(0.0, 1.0, 16)
        lift_fbm(0, 0.4, base, 2)
        lift_fbm(1, 0.4, base, 2)
        lift_fbm(2, 0.4, Grid(-1.0, 0.0, 16), 2)
        assert _fbm_factor.cache_info()[:2] == (2, 1)  # (hits, misses)
        lift_fbm(0, H, grid, level)
        lift_fbm(0, 0.4, base, 2)
        info = _fbm_factor.cache_info()
        assert info[:2] == (2, 3) and info.currsize == 1

    def test_factor_read_only(self):
        L = _fbm_factor(0.4, 1.0, 16, 2)
        assert not L.flags.writeable
        with pytest.raises(ValueError):
            L[0, 0] = 1.0

    def test_failed_factorization_named(self, monkeypatch):
        calls = []

        def fail(a):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        monkeypatch.setattr(np.linalg, "cholesky", fail)
        _fbm_factor.cache_clear()
        grid = Grid(0.0, 1.0, 8)
        for _ in range(2):  # a failed factorisation is not memoised
            with pytest.raises(CovarianceFactorizationError) as info:
                lift_fbm(0, 0.4, grid, 2)
            assert info.value.n_nodes == grid.n * 2**2
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert len(calls) == 2


class TestBlocks:
    def test_restrict_window(self):
        rp = lift_brownian(3, Grid(0.0, 2.0, 64))
        right = restrict(rp, 1.0, 2.0)
        assert right.grid.t0 == 1.0 and right.grid.t1 == 2.0 and right.n == 32
        assert np.array_equal(right.WW, rp.WW[32:])
        assert np.array_equal(right.W, rp.W[32:] - rp.W[32])
        assert np.allclose(right.second(0, 32), rp.second(32, 64), atol=1e-14)
        with pytest.raises(ValueError):
            restrict(rp, 1.0, 1.0)

    def test_shift_preserves_increments(self):
        rp = lift_brownian(3, Grid(-2.0, 0.0, 64))
        sh = shift(rp, -1.0)
        assert sh.grid.t0 == -1.0 and sh.grid.t1 == 1.0
        assert np.allclose(sh.W[32] - sh.W[0], rp.W[32] - rp.W[0])
        assert np.allclose(sh.second(0, 64), rp.second(0, 64))

    def test_unit_block_window(self):
        rp = lift_brownian(3, Grid(-3.0, 0.0, 96))
        ub = unit_block(rp, -2)
        assert ub.grid.t0 == 0.0 and ub.grid.t1 == 1.0 and ub.n == 32
        assert np.allclose(ub.W[32] - ub.W[0], rp.W[64] - rp.W[32])

    @pytest.mark.parametrize("grid, k, match", [
        (Grid(-3.0, 0.0, 96), -1.5, "no unit block"),
        (Grid(0.0, 3.0, 96), True, "no unit block"),
        (Grid(-3.0, 0.0, 96), -4, "no unit block"),
        (Grid(-3.0, 0.0, 96), 0, "no unit block"),
        (Grid(0.5, 2.5, 64), 1, "whole unit blocks"),
        (Grid(0.0, 2.5, 80), 1, "whole unit blocks"),
        (Grid(0.0, 3.0, 64), 1, "whole unit blocks")],
        ids=["fraction", "bool", "before-window", "after-window",
             "non-integer-start", "non-integer-end", "partial-cells"])
    def test_unit_block_rejects_bad_block(self, grid, k, match):
        rp = lift_brownian(3, grid)
        with pytest.raises(ValueError, match=match):
            unit_block(rp, k)

    def test_coarsen_chen_consistent(self):
        rp = lift_brownian(4, Grid(0.0, 1.0, 64), d=2)
        c = coarsen(rp, 4)
        assert np.allclose(c.second(0, c.n), rp.second(0, rp.n))

    @pytest.mark.parametrize("factor", [0, 2.0, -2, True], ids=["zero", "float", "negative", "bool"])
    def test_coarsen_rejects_bad_factor(self, factor):
        rp = lift_brownian(4, Grid(0.0, 1.0, 64), d=2)
        with pytest.raises(ValueError, match="positive integer"):
            coarsen(rp, factor)

    def test_fbm_rejects_negative_dyadic_level(self):
        with pytest.raises(ValueError, match="dyadic_level"):
            lift_fbm(0, 0.4, Grid(0.0, 1.0, 8), dyadic_level=-1)

    @pytest.mark.parametrize("level", [True, False])
    def test_fbm_rejects_bool_dyadic_level(self, level):
        with pytest.raises(ValueError, match="non-negative integer"):
            lift_fbm(0, 0.4, Grid(0.0, 1.0, 8), dyadic_level=level)


class TestChenOracle:
    """The reconstruction against per-cell and per-pair loops, bit for bit."""

    LIFTS = {
        "brownian-d1": lambda: lift_brownian(0, Grid(-4.0, 0.0, 128)),
        "brownian-d2": lambda: lift_brownian(1, Grid(-4.0, 0.0, 128), d=2),
        "brownian-d3": lambda: lift_brownian(2, Grid(-4.0, 0.0, 128), d=3),
        "fbm": lambda: lift_fbm(3, 0.4, Grid(-2.0, 0.0, 64), 3),
        "circle": circle_lift,
    }

    @staticmethod
    def loop_prefix(rp):
        P = np.empty((rp.n + 1, rp.d, rp.d))
        P[0] = 0.0
        for k in range(rp.n):
            P[k + 1] = P[k] + rp.WW[k] + np.outer(rp.W[k], rp.W[k + 1] - rp.W[k])
        return P

    @staticmethod
    def loop_second(rp, P, i, j):
        return P[j] - P[i] - np.outer(rp.W[i], rp.W[j] - rp.W[i])

    @pytest.fixture(params=list(LIFTS), scope="class")
    def lifted(self, request):
        rp = self.LIFTS[request.param]()
        return rp, self.loop_prefix(rp)

    def test_prefix(self, lifted):
        rp, P = lifted
        assert np.array_equal(rp._prefix_second(), P)

    def test_coarsen(self, lifted):
        rp, P = lifted
        for factor in (1, 4, rp.n):
            WW = np.array([self.loop_second(rp, P, k * factor, (k + 1) * factor)
                           for k in range(rp.n // factor)])
            c = coarsen(rp, factor)
            assert np.array_equal(c.W, rp.W[::factor]) and np.array_equal(c.WW, WW)

    def test_holder_norms(self, lifted):
        rp, P = lifted
        ii, jj = np.triu_indices(rp.n + 1, k=1)
        dt = (jj - ii) * rp.grid.h
        w = np.linalg.norm(rp.W[jj] - rp.W[ii], axis=1)
        WW = P[jj] - P[ii] - np.einsum("ka,kb->kab", rp.W[ii], rp.W[jj] - rp.W[ii])
        ww = np.linalg.norm(WW.reshape(len(ii), -1), axis=1)
        h1, h2 = rp.holder_norms()
        assert h1 == float(np.max(w / dt**rp.gamma))
        assert h2 == float(np.max(ww / dt ** (2 * rp.gamma)))

    def test_chen_defect(self, lifted):
        rp, P = lifted
        W, worst = rp.W, 0.0
        for u in range(1, rp.n):
            ii, jj = np.arange(0, u), np.arange(u + 1, rp.n + 1)
            Wiu, Wuj = W[u] - W[ii], W[jj] - W[u]
            WWij = (P[jj][None, :] - P[ii][:, None]
                    - np.einsum("ia,ijb->ijab", W[ii], W[jj][None, :] - W[ii][:, None]))
            WWiu = P[u] - P[ii] - np.einsum("ia,ib->iab", W[ii], Wiu)
            WWuj = P[jj] - P[u] - np.einsum("a,jb->jab", W[u], Wuj)
            defect = (WWij - WWiu[:, None] - WWuj[None, :]
                      - np.einsum("ia,jb->ijab", Wiu, Wuj))
            worst = max(worst, float(np.max(np.abs(defect))))
        assert _chen_defect(rp) == worst

    def test_second_on_index_arrays(self, lifted):
        rp, _ = lifted
        i = np.array([0, 3, 7, 7, 20])
        j = np.array([rp.n, 9, 7, 30, 21])
        stacked = np.array([rp.second(int(a), int(b)) for a, b in zip(i, j)])
        assert np.array_equal(rp.second(i, j), stacked)
        table = rp.second(i[:, None], np.array([[rp.n, 30]]))
        assert table.shape == (5, 2, rp.d, rp.d)
        assert np.array_equal(table[2, 1], rp.second(7, 30))

    @pytest.mark.parametrize("i, j", [([0, 5, 3], [4, 4, 4]), ([0, 1], [2, 10**6]),
                                      ([-1, 0], [2, 2])],
                             ids=["i-above-j", "j-above-n", "i-negative"])
    def test_second_rejects_bad_index(self, i, j):
        rp = lift_brownian(0, Grid(0.0, 1.0, 16), d=2)
        with pytest.raises(ValueError):
            rp.second(np.array(i), np.array(j))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([16, 32, 64]))
def test_chen_property_random_paths(seed, n):
    rp = lift_brownian(seed, Grid(0.0, 1.0, n), d=2)
    rng = np.random.default_rng(seed)
    i, k = sorted(rng.integers(0, n + 1, size=2))
    j = int(rng.integers(i, k + 1)) if k > i else i
    if i < j < k:
        lhs = rp.second(i, k) - rp.second(i, j) - rp.second(j, k)
        rhs = np.outer(rp.W[j] - rp.W[i], rp.W[k] - rp.W[j])
        assert np.allclose(lhs, rhs, atol=1e-12)
