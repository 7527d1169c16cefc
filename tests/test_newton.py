import numpy as np
import pytest

from fracstab import ContractError, NewtonError, damped_newton
from fracstab.newton import _accept_root, require_equilibrium


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


@pytest.mark.parametrize("relative", [0.5e-9, 2e-9])
def test_anchor_is_accepted_by_the_same_residual_rule_as_a_root(relative):
    # f(x) = x - c, so the anchor c + (0, r s) has residual r s at scale s = 4
    def f(x):
        return [x[0] - 4.0, x[1] + 2.0]

    anchor = np.array([4.0, -2.0 + relative * 4.0])
    accepted = _accept_root(f(anchor.tolist()), anchor)
    assert accepted == (relative < 1e-9)
    if accepted:
        assert require_equilibrium(f, anchor, 2).tolist() == anchor.tolist()
    else:
        with pytest.raises(ContractError, match="not an equilibrium"):
            require_equilibrium(f, anchor, 2)
