"""Tests for the dual numbers and the Taylor-coefficient engine."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngtmsv.dual import Dual, d_cos, d_exp, d_sin
from ngtmsv.errors import ConstructionError
from ngtmsv.series import (
    DerivativeSpec,
    GeneratingExponent,
    coefficient_array,
    mixed_partial_at_zero,
)


# ---------------------------------------------------------------------------
# dual numbers
# ---------------------------------------------------------------------------


class TestDual:
    def test_product_rule(self):
        x = Dual(3.0, 1.0)
        y = x * x * x
        assert y.value == 27.0
        assert y.deriv == 27.0  # 3 x^2

    def test_pow_matches_repeated_product(self):
        x = Dual(1.7, 1.0)
        assert x ** 4 == x * x * x * x

    def test_quotient_rule(self):
        x = Dual(2.0, 1.0)
        y = 1.0 / (1.0 + x)
        assert y.value == pytest.approx(1.0 / 3.0)
        assert y.deriv == pytest.approx(-1.0 / 9.0)

    def test_add_sub_with_scalars(self):
        x = Dual(2.0, 5.0)
        assert (1.0 + x).value == 3.0
        assert (1.0 + x).deriv == 5.0
        assert (1.0 - x).deriv == -5.0
        assert (x - 1.0).value == 1.0

    def test_trig_chain_rule(self):
        t = 0.73
        s = d_sin(Dual(t, 1.0))
        c = d_cos(Dual(t, 1.0))
        assert s.value == pytest.approx(math.sin(t))
        assert s.deriv == pytest.approx(math.cos(t))
        assert c.value == pytest.approx(math.cos(t))
        assert c.deriv == pytest.approx(-math.sin(t))

    def test_sqrt_exp_chain_rule(self):
        t = 1.9
        e = d_exp(Dual(t, 2.0))
        assert e.value == pytest.approx(math.exp(t))
        assert e.deriv == pytest.approx(2.0 * math.exp(t))

    def test_scalar_helpers_keep_real_inputs_real(self):
        # real arguments must not be promoted to complex
        for f, ref in ((d_sin, math.sin), (d_cos, math.cos), (d_exp, math.exp)):
            out = f(0.42)
            assert isinstance(out, float)
            assert out == pytest.approx(ref(0.42))

    def test_scalar_helpers_accept_complex(self):
        z = 0.3 + 0.2j
        assert d_sin(z) == pytest.approx(cmath.sin(z))
        assert d_exp(z) == pytest.approx(cmath.exp(z))

    def test_chained_scalar_seed(self):
        # derivative of sin(x^2) at x0 via a seeded square
        x0 = 0.8
        inner = Dual(x0, 1.0) * Dual(x0, 1.0)
        out = d_sin(inner)
        assert out.deriv == pytest.approx(2.0 * x0 * math.cos(x0 * x0))

    def test_truthiness_and_abs(self):
        assert not Dual(0.0, 0.0)
        assert Dual(0.0, 1.0)
        assert abs(Dual(-3.0, 9.0)) == 3.0


# ---------------------------------------------------------------------------
# generating exponents
# ---------------------------------------------------------------------------


_BATCH_MESSAGE = ("a batch of quadratic blocks must be real, of shape (B, 2, 2),"
                  " with a real linear part")


class TestGeneratingExponent:
    def test_symmetry_enforced(self):
        with pytest.raises(ConstructionError):
            GeneratingExponent(2, [[0.0, 1.0], [2.0, 0.0]])

    def test_monomials_double_off_diagonal(self):
        g = GeneratingExponent(2, [[0.5, 0.25], [0.25, 0.0]], [0.0, 3.0])
        mono = dict(g.monomials())
        assert mono[(2, 0)] == 0.5
        assert mono[(1, 1)] == 0.5  # 2 * 0.25
        assert mono[(0, 1)] == 3.0
        assert (0, 2) not in mono

    def test_value_at_matches_quadratic_form(self):
        quad = [[0.2, -0.1], [-0.1, 0.3]]
        g = GeneratingExponent(2, quad, [0.5, -0.25], const=0.1)
        pt = (0.7, -1.1)
        expo = (quad[0][0] * pt[0] ** 2 + 2 * quad[0][1] * pt[0] * pt[1]
                + quad[1][1] * pt[1] ** 2 + 0.5 * pt[0] - 0.25 * pt[1] + 0.1)
        assert g.value_at(pt) == pytest.approx(cmath.exp(expo))

    def test_shape_validation(self):
        with pytest.raises(ConstructionError):
            GeneratingExponent(2, [[0.0, 0.0]])
        with pytest.raises(ConstructionError):
            GeneratingExponent(2, None, [1.0])

    @pytest.mark.parametrize("make, message", [
        (lambda: GeneratingExponent(2, [[0.0, 1.0], [1.0]]), "quadratic block must be 2x2"),
        (lambda: GeneratingExponent(2, np.zeros((3, 2, 2), dtype=complex)), _BATCH_MESSAGE),
        (lambda: GeneratingExponent(2, np.zeros((3, 2, 2)), [Dual(0.2, 1.0), 0.0]),
         _BATCH_MESSAGE),
        (lambda: GeneratingExponent(2, np.zeros((3, 3, 3))), _BATCH_MESSAGE),
        (lambda: GeneratingExponent(3, np.array([np.eye(3), [[0.0, 0.0, 0.0],
                                                             [0.0, 0.0, 0.5],
                                                             [0.0, 0.25, 0.0]]])),
         "quadratic block not symmetric at (1,2)"),
        (lambda: mixed_partial_at_zero(GeneratingExponent(2, np.zeros((3, 2, 2))),
                                       DerivativeSpec((1, 1))),
         "mixed_partial_at_zero takes one exponent, not a batch"),
    ], ids=["ragged", "complex-batch", "dual-lin-batch", "batch-shape", "asymmetric-batch",
            "batch-extraction"])
    def test_construction_errors(self, make, message):
        with pytest.raises(ConstructionError) as err:
            make()
        assert str(err.value) == message


class TestCoefficientArray:
    def test_single_variable(self):
        # exp(a x): coefficient of x^k is a^k / k!
        a = 0.7 - 0.2j
        arr = coefficient_array(GeneratingExponent(1, [[0.0]], [a]),
                                DerivativeSpec((5,)))
        assert arr.shape == (1, 6)
        for k in range(6):
            assert arr[0, k] == pytest.approx(a ** k / math.factorial(k))

    def test_quadratic_term(self):
        # exp(b x^2): coefficient of x^(2j) is b^j / j!, odd powers vanish
        b = 0.35
        arr = coefficient_array(GeneratingExponent(1, [[b]]),
                                DerivativeSpec((4,)))
        assert arr[0, 2] == pytest.approx(b)
        assert arr[0, 4] == pytest.approx(b ** 2 / 2.0)
        assert arr[0, 1] == 0.0 and arr[0, 3] == 0.0

    def test_cross_term_hand_expansion(self):
        # exp(a s t + b s + c t): coefficient of s t is a + b c
        a, b, c = 0.5, 1.25, -2.0
        g = GeneratingExponent(2, [[0.0, a / 2.0], [a / 2.0, 0.0]], [b, c])
        arr = coefficient_array(g, DerivativeSpec((1, 2)))
        assert arr.shape == (1, 2, 3)
        assert arr[0, 1, 1] == pytest.approx(a + b * c)
        assert arr[0, 0, 2] == pytest.approx(c ** 2 / 2.0)

    def test_dual_entries_add_derivative_row(self):
        # exp(c x^2) with c = Dual(t, 1): d/dt [x^2] = 1, d/dt [x^4] = t
        t = 0.4
        arr = coefficient_array(GeneratingExponent(1, [[Dual(t, 1.0)]]),
                                DerivativeSpec((4,)))
        assert arr.shape == (2, 5)
        assert arr[0, 4] == pytest.approx(t ** 2 / 2.0)
        assert arr[1, 2] == pytest.approx(1.0)
        assert arr[1, 4] == pytest.approx(t)

    def test_ignores_constant_and_prefactor(self):
        g = GeneratingExponent(1, None, [2.0], const=0.3)
        arr = coefficient_array(g, DerivativeSpec((2,), prefactor=5.0))
        assert arr[0, 2] == pytest.approx(2.0)


class TestZeroOrderVariables:
    """Variables of order 0 are set to zero; nothing they carry may leak in."""

    # variables 1 and 3 are active, 0 and 2 have order 0
    ORDERS = (0, 2, 0, 1)

    @staticmethod
    def _exponent(inactive):
        # `inactive` fills every quad/lin entry that touches variable 0 or 2
        quad = [[0.0] * 4 for _ in range(4)]
        lin = [0.0, -0.4 + 0.1j, 0.0, 0.7]
        quad[1][1] = 0.3 - 0.2j
        quad[3][3] = 0.25
        quad[1][3] = quad[3][1] = -0.15
        for i in (0, 2):
            lin[i] = inactive
            for j in range(4):
                quad[i][j] = quad[j][i] = inactive
        return GeneratingExponent(4, quad, lin)

    @pytest.mark.parametrize("inactive", [1.3 - 0.6j, Dual(0.8, -2.0)])
    def test_entries_on_inactive_variables_change_nothing(self, inactive):
        spec = DerivativeSpec(self.ORDERS, prefactor=-1.5)
        jet = isinstance(inactive, Dual)
        bare = self._exponent(Dual(0.0, 0.0) if jet else 0.0)
        loaded = self._exponent(inactive)
        want = coefficient_array(bare, spec)
        got = coefficient_array(loaded, spec)
        assert got.shape == want.shape == (2 if jet else 1, 1, 3, 1, 2)
        assert np.array_equal(got, want)
        assert repr(mixed_partial_at_zero(loaded, spec)) == repr(
            mixed_partial_at_zero(bare, spec))

    def test_shape_keeps_size_one_axes(self):
        g = GeneratingExponent(3, [[0.1, 0.2, 0.0], [0.2, 0.0, 0.3],
                                   [0.0, 0.3, 0.5]], [1.0, 2.0, 3.0])
        for orders in ((0, 0, 0), (0, 3, 0), (2, 0, 1)):
            arr = coefficient_array(g, DerivativeSpec(orders))
            assert arr.shape == (1,) + tuple(k + 1 for k in orders)
        assert coefficient_array(g, DerivativeSpec((0, 0, 0)))[0, 0, 0, 0] == 1.0

    def test_dual_only_on_inactive_variable_keeps_jet(self):
        # the derivative row is present but zero: nothing active depends on t
        g = GeneratingExponent(2, [[0.4, 0.0], [0.0, Dual(0.2, 1.0)]], [0.5, 0.0])
        arr = coefficient_array(g, DerivativeSpec((2, 0)))
        assert arr.shape == (2, 3, 1)
        assert not arr[1].any()
        assert arr[0, 2, 0] == pytest.approx(0.4 + 0.5 ** 2 / 2.0)
        out = mixed_partial_at_zero(g, DerivativeSpec((2, 0)))
        assert isinstance(out, Dual) and out.deriv == 0

    def test_batch_entries_hold_the_real_parts_of_single_exponents(self):
        # a batch shares its linear part, and each entry holds the bits of
        # the real part that its exponent run alone gives
        quads = np.array([[[0.4, 0.1, 0.0], [0.1, -0.2, 0.3], [0.0, 0.3, 0.5]],
                          [[0.0, -0.7, 0.2], [-0.7, 1.5, 0.0], [0.2, 0.0, -0.1]]])
        lin = [0.5, 0.0, -0.25]
        spec = DerivativeSpec((3, 0, 2))
        batch = coefficient_array(GeneratingExponent(3, quads, lin), spec)
        assert batch.shape == (1, 2, 4, 1, 3)
        for b, quad in enumerate(quads):
            alone = coefficient_array(GeneratingExponent(3, quad, lin), spec)
            assert batch[0, b].tobytes() == alone[0].real.tobytes()
            assert not alone.imag.any()

    def test_diagonal_square_needs_order_two(self):
        # u0^2 cannot reach order 1 in u0, so with orders (1, 1) only the
        # cross and linear terms count: [u0 u1] = 2*q01 + l0*l1
        q01, l0, l1 = 0.35, 0.6, -1.1
        for diag in (0.0, 0.9 + 0.4j):
            g = GeneratingExponent(2, [[diag, q01], [q01, diag]], [l0, l1])
            arr = coefficient_array(g, DerivativeSpec((1, 1)))
            assert arr[0, 1, 1] == 2 * q01 + l0 * l1
            assert arr[0, 1, 0] == l0 and arr[0, 0, 1] == l1

    def test_monomials_restricted_to_variables(self):
        g = GeneratingExponent(3, [[0.1, 0.2, 0.0], [0.2, 0.0, 0.3],
                                   [0.0, 0.3, 0.5]], [1.0, 0.0, 3.0])
        assert list(g.monomials([0, 2])) == [
            ((2, 0), 0.1), ((0, 2), 0.5), ((1, 0), 1.0), ((0, 1), 3.0)]


# ---------------------------------------------------------------------------
# mixed partial extraction
# ---------------------------------------------------------------------------


def _finite_difference_partial(g, orders, h=1e-2):
    """Independent check: centered finite differences of exp(g) at zero."""
    dim = g.dim
    grids = [(np.arange(0, k + 1) - k / 2.0) for k in orders]
    total = 0.0 + 0j
    for idx in np.ndindex(*[k + 1 for k in orders]):
        point = [grids[i][idx[i]] * h for i in range(dim)]
        weight = 1.0
        for i, k in enumerate(orders):
            # centered binomial stencil for the k-th derivative
            j = idx[i]
            weight *= (-1) ** (k - j) * math.comb(k, j)
        total += weight * g.value_at(point)
    return total / h ** sum(orders)


def _mpmath_partial(quad, lin, orders):
    """Independent reference: mpmath's numerical mixed partial of
    exp(u^T quad u + lin . u) at zero, worked at 40 significant digits."""
    dim = len(lin)

    def f(*u):
        expo = sum(quad[i][j] * u[i] * u[j]
                   for i in range(dim) for j in range(dim))
        return mpmath.exp(expo + sum(lin[i] * u[i] for i in range(dim)))

    with mpmath.workdps(40):
        return complex(mpmath.diff(f, (0,) * dim, tuple(orders)))


class TestMixedPartial:
    def test_zero_orders_give_exp_const(self):
        g = GeneratingExponent(2, [[0.1, 0.0], [0.0, 0.2]], [0.3, 0.4], const=1.1)
        out = mixed_partial_at_zero(g, DerivativeSpec((0, 0)))
        assert out == pytest.approx(math.exp(1.1))

    def test_second_derivative_of_gaussian(self):
        # d^2/dx^2 exp(a x^2) at 0 = 2 a
        a = 0.37
        g = GeneratingExponent(1, [[a]])
        out = mixed_partial_at_zero(g, DerivativeSpec((2,)))
        assert out == pytest.approx(2.0 * a)

    def test_prefactor_applied(self):
        g = GeneratingExponent(1, [[0.0]], [1.0])
        out = mixed_partial_at_zero(g, DerivativeSpec((1,), prefactor=-2.0))
        assert out == pytest.approx(-2.0)

    def test_constant_part_scales_result(self):
        g = GeneratingExponent(2, [[0.0, 0.5], [0.5, 0.0]], None, const=0.7)
        out = mixed_partial_at_zero(g, DerivativeSpec((1, 1)))
        assert out == pytest.approx(1.0 * math.exp(0.7))

    def test_against_finite_differences(self):
        quad = [[0.21, -0.13, 0.05],
                [-0.13, 0.09, 0.11],
                [0.05, 0.11, -0.17]]
        lin = [0.3, -0.2, 0.15]
        g = GeneratingExponent(3, quad, lin)
        for orders in [(1, 0, 0), (1, 1, 0), (2, 0, 1), (2, 2, 1)]:
            exact = mixed_partial_at_zero(g, DerivativeSpec(orders))
            approx = _finite_difference_partial(g, orders)
            assert exact == pytest.approx(approx, rel=1e-3, abs=1e-3)

    def test_matches_mpmath_reference_fixed(self):
        quad = [[0.1, 0.2, -0.3, 0.0],
                [0.2, 0.0, 0.12, -0.07],
                [-0.3, 0.12, 0.05, 0.21],
                [0.0, -0.07, 0.21, -0.11]]
        lin = [0.4, -0.1, 0.0, 0.25]
        g = GeneratingExponent(4, quad, lin)
        spec = DerivativeSpec((2, 1, 1, 2), prefactor=3.0)
        got = mixed_partial_at_zero(g, spec)
        want = 3.0 * _mpmath_partial(quad, lin, spec.orders)
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-0.6, 0.6), min_size=6, max_size=6),
           st.lists(st.floats(-0.8, 0.8), min_size=3, max_size=3),
           st.lists(st.integers(0, 3), min_size=3, max_size=3))
    def test_matches_mpmath_reference(self, upper, lin, orders):
        quad = [[0.0] * 3 for _ in range(3)]
        k = 0
        for i in range(3):
            for j in range(i, 3):
                quad[i][j] = upper[k]
                quad[j][i] = upper[k]
                k += 1
        g = GeneratingExponent(3, quad, lin)
        got = mixed_partial_at_zero(g, DerivativeSpec(tuple(orders)))
        want = _mpmath_partial(quad, lin, orders)
        assert cmath.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)

    def test_dual_coefficients_differentiate(self):
        # exponent c(t) x^2 with c = t at t0: d/dt of (d^2/dx^2 exp) = 2
        c = Dual(0.4, 1.0)
        g = GeneratingExponent(1, [[c]])
        out = mixed_partial_at_zero(g, DerivativeSpec((2,)))
        assert isinstance(out, Dual)
        assert out.value == pytest.approx(0.8)
        assert out.deriv == pytest.approx(2.0)

    def test_dual_route_matches_numeric_difference(self):
        def build(t):
            quad = [[0.2 * t, 0.1], [0.1, -0.3 * t]]
            lin = [0.5 * t, 0.25]
            return GeneratingExponent(2, quad, lin)

        spec = DerivativeSpec((2, 2))
        t0, h = 0.8, 1e-6
        lo = mixed_partial_at_zero(build(t0 - h), spec)
        hi = mixed_partial_at_zero(build(t0 + h), spec)
        fd = (hi - lo) / (2 * h)

        quad = [[Dual(0.2 * t0, 0.2), Dual(0.1, 0.0)],
                [Dual(0.1, 0.0), Dual(-0.3 * t0, -0.3)]]
        lin = [Dual(0.5 * t0, 0.5), Dual(0.25, 0.0)]
        out = mixed_partial_at_zero(GeneratingExponent(2, quad, lin), spec)
        assert out.value == pytest.approx((hi + lo) / 2, rel=1e-8)
        assert out.deriv == pytest.approx(fd.real, rel=1e-6)

    def test_order_dimension_mismatch(self):
        g = GeneratingExponent(2)
        with pytest.raises(ConstructionError):
            mixed_partial_at_zero(g, DerivativeSpec((1,)))
        with pytest.raises(ConstructionError):
            coefficient_array(g, DerivativeSpec((1,)))

    def test_negative_orders_rejected(self):
        with pytest.raises(ConstructionError):
            DerivativeSpec((1, -1))
