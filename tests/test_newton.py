import numpy as np
import pytest

from fracstab import NewtonError, damped_newton


def test_newton_rejects_a_converged_point_whose_residual_is_too_large():
    # The steps shrink to nothing at x = 1, but the jump of the sign term
    # leaves |f| = 1e-3 there, far above the accepted 1e-9 max(|x|, 1).
    def f(x):
        return [1e6 * (v - 1.0) + 1e-3 * np.sign(v - 1.0) for v in x]

    with pytest.raises(NewtonError, match="residual"):
        damped_newton(f, [2.0])


def test_newton_returns_the_seed_where_its_root_leaves_the_seeds_orthant():
    # the root (1, -1e-12) is within the residual rule of the seed (1, 1e-12)
    def f(x):
        return [x[0] - 1.0, x[1] + 1e-12]

    assert damped_newton(f, [1.0, 1e-12]).tolist() == [1.0, 1e-12]
    # only the seed's positive components bind: from (2, 0) the root is returned
    np.testing.assert_allclose(damped_newton(f, [2.0, 0.0]), [1.0, -1e-12], rtol=1e-9)
