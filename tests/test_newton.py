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
