import math

import numpy as np
import pytest

from prodsub import ProductSpace, curvature, inner, membership_residual


def e(k, dim):
    v = np.zeros(dim)
    v[k] = 1.0
    return v


def test_inner_signature():
    s = ProductSpace(1, 3)
    h = ProductSpace(-1, 3)
    assert inner(s, e(0, 5), e(0, 5)) == 1.0
    assert inner(h, e(0, 5), e(0, 5)) == -1.0
    assert inner(h, e(0, 5), e(1, 5)) == 0.0


def test_product_space_layout():
    s = ProductSpace(1, 4)
    assert s.ambient_dim == 6 and s.t_index == 5
    assert np.array_equal(s.signature, np.ones(6))
    h = ProductSpace(-1, 4)
    assert h.signature[0] == -1 and np.all(h.signature[1:] == 1)
    with pytest.raises(ValueError):
        ProductSpace(2, 4)
    with pytest.raises(ValueError):
        ProductSpace(1, 1)


def test_membership_residual():
    s3 = ProductSpace(1, 3)
    for t in (-2.0, 0.0, 5.0):
        assert membership_residual(s3, np.array([1, 0, 0, 0, t])) == 0.0
    h3 = ProductSpace(-1, 3)
    assert membership_residual(h3, np.array([1, 0, 0, 0, 0.7])) == 0.0
    assert membership_residual(s3, np.array([2, 0, 0, 0, 0])) == 3.0
    # lower sheet is rejected for the hyperbolic quadric
    assert membership_residual(h3, np.array([-1, 0, 0, 0, 0])) == math.inf


def test_curvature_flat_directions():
    s = ProductSpace(1, 3)
    dt = e(4, 5)
    x, y = e(0, 5), e(1, 5)
    assert np.array_equal(curvature(s, x, y, dt), np.zeros(5))
    assert np.array_equal(curvature(s, dt, y, x), np.zeros(5))


def test_curvature_unit_sectional():
    s = ProductSpace(1, 3)
    x, y = e(0, 5), e(1, 5)
    assert np.allclose(curvature(s, x, y, y), x)
    assert inner(s, curvature(s, x, y, y), x) == 1.0


def test_curvature_sign_flip_hyperbolic():
    h = ProductSpace(-1, 3)
    # spacelike orthonormal pair tangent to H^3 at (1,0,0,0)
    x, y = e(1, 5), e(2, 5)
    assert np.allclose(curvature(h, x, y, y), -x)


def _random_tangent(rng, space, p):
    v = rng.standard_normal(space.ambient_dim)
    phat = space.q_padded(p)
    return v - space.epsilon * inner(space, v, phat) * phat


@pytest.mark.parametrize("eps", [1, -1])
def test_curvature_symmetries_random(eps):
    space = ProductSpace(eps, 4)
    rng = np.random.default_rng(5 + eps)
    if eps == 1:
        p = np.array([0.6, 0.8, 0, 0, 0, 0.4])
    else:
        p = np.array([math.cosh(0.5), math.sinh(0.5), 0, 0, 0, 0.4])
    assert membership_residual(space, p) < 1e-15
    for _ in range(50):
        x, y, z, w = (_random_tangent(rng, space, p) for _ in range(4))
        rxyz = curvature(space, x, y, z)
        assert np.allclose(rxyz, -curvature(space, y, x, z), atol=1e-12)
        rzwx = curvature(space, z, w, x)
        assert abs(inner(space, rxyz, w) + inner(space, curvature(space, x, y, w), z)) <= 1e-12
        assert abs(inner(space, rxyz, w) - inner(space, rzwx, y)) <= 1e-12
