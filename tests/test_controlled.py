import numpy as np
import pytest

from oracles import constant_path, reference_path
from roughcm import ControlledPath, Grid, lift_brownian, norm_d2g


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

