import numpy as np
import pytest

from oracles import constant_path, gathered_d2g_terms, reference_path
from roughcm import ControlledPath, Grid, lift_brownian, norm_d2g
from roughcm.controlled import d2g_terms
from roughcm.roughpath import _pair_table


@pytest.fixture()
def rp():
    return lift_brownian(1, Grid(0.0, 1.0, 64), d=2)


class TestControlledPath:
    def test_reference_remainder_vanishes(self, rp):
        cp = reference_path(rp)
        assert norm_d2g(cp).holder_remainder <= 1e-15

    def test_constant(self, rp):
        cp = constant_path(rp, [2.0, -1.0])
        n = norm_d2g(cp)
        assert n.sup_Y == pytest.approx(np.sqrt(5.0))
        assert n.sup_Yp == 0.0 and n.holder_Yp == 0.0 and n.holder_remainder == 0.0

    def test_shape_validation(self, rp):
        with pytest.raises(ValueError):
            ControlledPath(rp, np.zeros(10))
        with pytest.raises(ValueError):
            ControlledPath(rp, np.zeros((65, 1)), np.zeros((65, 2, 2)))


class TestNorm:
    def test_square_remainder_regularity(self, rp):
        # Y = (W^1)^2 has Y' = 2 W^1 e_1 and a genuinely 2-gamma remainder
        w1 = rp.W[:, 0]
        Yp = np.zeros((rp.n + 1, 1, 2))
        Yp[:, 0, 0] = 2 * w1
        cp = ControlledPath(rp, w1**2, Yp)
        # remainder over one cell is exactly (dW)^2
        dW = rp.W[11, 0] - rp.W[10, 0]
        R = cp.Y[11] - cp.Y[10] - cp.Yp[10] @ (rp.W[11] - rp.W[10])
        assert R[0] == pytest.approx(dW**2)
        assert norm_d2g(cp).holder_remainder < np.inf

    def test_homogeneity(self, rp):
        cp = reference_path(rp)
        n1, n3 = norm_d2g(cp), norm_d2g(ControlledPath(rp, 3 * cp.Y, 3 * cp.Yp))
        assert n3.total == pytest.approx(3.0 * n1.total)



class TestComponentKernel:
    """d2g_terms on one array per component and channel gives the floats
    of the gathered (pairs, m, d) kernel, to the bit."""

    @pytest.mark.parametrize("plant", [None, np.nan, np.inf],
                             ids=["finite", "nan", "inf"])
    @pytest.mark.parametrize("lead", [(), (3, 4)], ids=["single", "stack"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_gathered(self, m, d, lead, plant):
        rng = np.random.default_rng(100 * m + 10 * d + len(lead))
        nu = 32
        ii, jj, dt = _pair_table(Grid(0.0, 1.0, nu))
        pairs = (ii, jj, dt**0.45, dt**0.9)

        def draw(shape):    # entries over six decades of scale
            return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)

        Y, Yp = draw(lead + (nu + 1, m)), draw(lead + (nu + 1, m, d))
        # one path per block, shared by the rows of a (K, N) stack
        W = np.cumsum(draw(lead[1:] + (nu + 1, d)), axis=-2)
        dW = W[..., jj, :] - W[..., ii, :]
        if plant is not None:
            # in a stack: Y of block (0, 0), Y' of block (1, 2), W of block 3
            y_at, yp_at, w_at = ((0, 0), (1, 2), (3,)) if lead else ((), (), ())
            Y[y_at + (5, m - 1)] = plant
            Yp[yp_at + (17, 0, d - 1)] = plant
            dW[w_at + (40, 0)] = plant
        # as given, and as the component-first views that the LP passes
        views = (Y, Yp), (np.swapaxes(np.ascontiguousarray(np.swapaxes(Y, -1, -2)), -1, -2),
                          np.moveaxis(np.ascontiguousarray(np.moveaxis(Yp, -3, -2)), -3, -2))
        want = gathered_d2g_terms(Y, Yp, dW, pairs)
        for Ya, Ypa in views:
            got = d2g_terms(Ya, Ypa, dW, pairs)
            for g, w in zip(got, want):
                assert g.shape == w.shape == lead and g.tobytes() == w.tobytes()
        if plant is not None and lead:
            assert not np.isfinite(want[0][0, 0]) and not np.isfinite(want[2][1, 2])
            assert not np.isfinite(want[3][:, 3]).any()
            assert np.isfinite([w[2, 1] for w in want]).all()
