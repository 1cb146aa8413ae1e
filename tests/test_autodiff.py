"""Forward-mode differentiation: worked examples, finite-difference
cross-checks and the domain-error surface."""

from __future__ import annotations

import numpy as np
import pytest

from tvcbf import autodiff
from tvcbf.autodiff import FirstOrderNumber, lift, lift_first, unwrap
from tvcbf.errors import DomainError


def _fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        out[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def _fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    d = x.size
    out = np.empty((d, d))
    for j in range(d):
        for k in range(d):
            ej = np.zeros(d)
            ek = np.zeros(d)
            ej[j] = h
            ek[k] = h
            out[j, k] = (
                f(x + ej + ek) - f(x + ej - ek) - f(x - ej + ek) + f(x - ej - ek)
            ) / (4.0 * h * h)
    return out


def _gradient(y, d):
    """Gradient of a lifted number, zero for one that ignores the seeds."""
    if isinstance(y, FirstOrderNumber):
        return np.array([unwrap(g) for g in y.grad])
    return np.zeros(d)


def _nested_grad_hess(f, x):
    """Value, gradient and Hessian of ``f`` at ``x`` from two nested
    first-order lifts: the inner one differentiates f, the outer one
    tracks how each gradient entry depends on x."""
    d = len(x)
    y = f(lift_first(lift_first([float(v) for v in x])))
    if not isinstance(y, FirstOrderNumber):
        return float(y), np.zeros(d), np.zeros((d, d))
    hess = np.array([_gradient(g, d) for g in y.grad])
    return unwrap(y), _gradient(y, d), hess


def test_lift_seeds_unit_gradients():
    assert lift_first is lift  # one seeding function under both names
    (a,) = lift([3.0])
    assert a.value == 3.0
    assert a.grad == (1.0,)

    a, b = lift([1.0, 2.0])
    assert a.grad == (1.0, 0.0)
    assert b.grad == (0.0, 1.0)
    assert lift([]) == ()


def test_product_rule_worked_example():
    # f(x) = x1^2 x2 at (1, 2), derivatives by hand
    value, grad, hess = _nested_grad_hess(lambda s: s[0] ** 2 * s[1], (1.0, 2.0))
    assert value == 2.0
    assert np.array_equal(grad, [4.0, 1.0])
    assert np.array_equal(hess, [[4.0, 2.0], [2.0, 0.0]])


def test_half_norm_squared():
    def f(s):
        return 0.5 * (s[0] * s[0] + s[1] * s[1])

    value, grad, hess = _nested_grad_hess(f, (3.0, 4.0))
    assert value == 12.5
    assert np.array_equal(grad, [3.0, 4.0])
    assert np.array_equal(hess, np.eye(2))


def test_constant_function():
    value, grad, hess = _nested_grad_hess(lambda s: 7.25, (1.0, -2.0, 0.5))
    assert value == 7.25
    assert np.array_equal(grad, np.zeros(3))
    assert np.array_equal(hess, np.zeros((3, 3)))


def _random_field(coeffs):
    """Polynomial/trig composition used for the randomized checks."""

    def f(s):
        a, b, c, e = coeffs[:4]
        total = a * s[0] ** 3
        for j in range(len(s) - 1):
            total = total + b * s[j] * s[j + 1]
        total = total + c * autodiff.sin(2.0 * s[-1]) * autodiff.cos(s[0])
        inner = 1.0
        for v in s:
            inner = inner + 0.1 * v * v
        total = total + e * autodiff.log(inner) + autodiff.exp(0.3 * s[0])
        return total

    def plain(x):
        return f(list(x))

    return f, plain


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        coeffs = rng.uniform(-2.0, 2.0, size=4)
        x = rng.uniform(-1.5, 1.5, size=dim)
        f, plain = _random_field(coeffs)
        y = f(lift(x))
        value, grad = y.value, np.array(y.grad)
        assert np.isclose(value, plain(x), rtol=1e-12, atol=1e-12)
        _, nested_grad, hess = _nested_grad_hess(f, x)
        assert np.allclose(nested_grad, grad, rtol=1e-14, atol=1e-15)
        fd_g = _fd_gradient(plain, x)
        scale_g = max(1.0, np.abs(fd_g).max())
        assert np.abs(grad - fd_g).max() / scale_g < 1e-6
        fd_h = _fd_hessian(plain, x)
        scale_h = max(1.0, np.abs(fd_h).max())
        assert np.abs(hess - fd_h).max() / scale_h < 1e-4


def test_linearity_of_differentiation():
    rng = np.random.default_rng(21)
    for _ in range(50):
        alpha, beta = rng.uniform(-3.0, 3.0, size=2)
        x = rng.uniform(-1.0, 1.0, size=3)

        def f(s):
            return s[0] * s[1] + autodiff.sin(s[2])

        def g(s):
            return autodiff.exp(0.5 * s[0]) + s[2] ** 2

        def combo(s):
            return alpha * f(s) + beta * g(s)

        vf, gf, hf = _nested_grad_hess(f, x)
        vg, gg, hg = _nested_grad_hess(g, x)
        vc, gc, hc = _nested_grad_hess(combo, x)
        assert np.isclose(vc, alpha * vf + beta * vg, rtol=1e-12)
        assert np.allclose(gc, alpha * gf + beta * gg, rtol=1e-12, atol=1e-14)
        assert np.allclose(hc, alpha * hf + beta * hg, rtol=1e-12, atol=1e-14)


def test_division_matches_quotient_rule():
    def f(s):
        return s[0] / s[1]

    value, grad, hess = _nested_grad_hess(f, (6.0, 2.0))
    assert value == 3.0
    assert np.allclose(grad, [0.5, -1.5])
    assert np.allclose(hess, [[0.0, -0.25], [-0.25, 1.5]])

    (a,) = lift([2.0])
    r = 3.0 / a
    assert r.value == 1.5
    assert r.grad == (-0.75,)


def test_power_special_cases():
    (a,) = lift([1.7])
    zero = a**0
    assert zero.value == 1.0 and zero.grad == (0.0,)
    assert (a**1) is a

    (b,) = lift([2.0])
    inv = b**-2
    assert inv.value == 0.25
    assert np.isclose(inv.grad[0], -2.0 * 2.0**-3)

    half = b**0.5
    assert np.isclose(half.value, np.sqrt(2.0))


def test_domain_errors():
    (a,) = lift([-1.0])
    with pytest.raises(DomainError):
        a**0.5
    with pytest.raises(DomainError):
        autodiff.log(a)
    with pytest.raises(DomainError):
        autodiff.sqrt(a)
    with pytest.raises(DomainError):
        autodiff.log(-1.0)
    with pytest.raises(DomainError):
        autodiff.sqrt(-1.0)

    (z,) = lift([0.0])
    with pytest.raises(ZeroDivisionError):
        1.0 / z
    with pytest.raises(ZeroDivisionError):
        z**-1
    with pytest.raises(ZeroDivisionError):
        a / 0.0


def test_plain_floats_pass_through_elementary_functions():
    assert autodiff.sin(0.0) == 0.0
    assert autodiff.exp(0.0) == 1.0
    assert autodiff.sqrt(4.0) == 2.0
    assert autodiff.log(1.0) == 0.0


def test_comparisons_and_float_conversion():
    (a,) = lift([2.5])
    assert a > 2.0
    assert a >= 2.5
    assert a < 3.0
    assert a <= 2.5
    assert float(a) == 2.5
    assert unwrap(a) == 2.5


def test_immutability():
    (a,) = lift([1.0])
    with pytest.raises(AttributeError):
        a.value = 2.0
    (b,) = lift_first([1.0])
    with pytest.raises(AttributeError):
        b.grad = (0.0,)


def test_nested_lifts_give_the_hessian():
    # the inner lift differentiates f; each gradient entry is a number
    # lifted over the outer seeds, whose gradient is a Hessian row
    outer = lift_first([1.0, 2.0])
    inner = lift_first(outer)
    y = inner[0] ** 2 * inner[1]
    df_dx0 = y.grad[0]
    assert isinstance(df_dx0, FirstOrderNumber)
    assert unwrap(df_dx0.value) == 4.0  # 2 x0 x1
    assert tuple(unwrap(g) for g in df_dx0.grad) == (4.0, 2.0)  # Hessian row

    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(0.3, 1.8, size=3)

        def f(s):
            return (
                s[0] ** 2 * s[1]
                - s[2] / s[0]
                + autodiff.sin(s[1]) * autodiff.exp(0.2 * s[2])
                + autodiff.sqrt(s[0] + s[1])
                + 2.0 ** 1 * (1.0 - s[2]) ** 3
            )

        y = f(lift_first(lift_first(x)))
        hess = np.array([[unwrap(h) for h in g.grad] for g in y.grad])
        fd_h = _fd_hessian(lambda v: f(list(v)), x)
        assert np.abs(hess - fd_h).max() / max(1.0, np.abs(fd_h).max()) < 1e-4
        assert np.allclose(hess, hess.T, rtol=1e-13, atol=1e-14)


def test_unwrap_peels_nested_numbers():
    outer = lift([3.0])
    inner = lift_first(outer)
    assert unwrap(inner[0]) == 3.0
    assert unwrap(5.0) == 5.0
