"""Tests for operation specs, derived parameters, and the quadratic forms.

The form builders are checked two ways: structural identities at special
parameter values (lam = 0, tau = 1) where the closed forms collapse, and an
entry-by-entry comparison against a second transcription of the same tables
written here in raw unfactored style (a typo in either copy breaks the match).
"""

import dataclasses
import math

import numpy as np
import pytest

from ngtmsv.dual import Dual
from ngtmsv.errors import ConstructionError, ParameterError
from ngtmsv.model import (
    _KIND_ROWS,
    ModelParams,
    NGOperationSpec,
    ParityAux,
    _preset_row,
    derive_params,
    moment_coupling,
    moment_exponent,
    moment_source_form,
    operation_from_table,
    parity_aux,
    parity_form,
    phase_space_form,
    probability_form,
    tmsv_spec,
    wigner_aux_form,
    wigner_coupling,
)


class TestNGOperationSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            NGOperationSpec(-1, 0, 0, 0)
        with pytest.raises(ParameterError):
            NGOperationSpec(0, 0, 1.5, 0)  # non-integer photon number
        with pytest.raises(ParameterError):
            NGOperationSpec(0, 0, 0, 0, tau1=0.0)
        with pytest.raises(ParameterError):
            NGOperationSpec(0, 0, 0, 0, tau2=1.2)

    def test_mode_operation_classification(self):
        spec = NGOperationSpec(0, 2, 1, 1, 0.5, 0.5)
        assert spec.mode_operation(1) == "subtraction"  # m1=0 < n1=1
        assert spec.mode_operation(2) == "addition"     # m2=2 > n2=1
        assert NGOperationSpec(1, 0, 1, 0).mode_operation(1) == "catalysis"
        assert tmsv_spec().mode_operation(1) == "none"

    def test_total_photons_and_swap(self):
        spec = NGOperationSpec(1, 2, 3, 4, 0.3, 0.7)
        assert spec.total_photons == 10
        sw = spec.swapped()
        assert (sw.m1, sw.m2, sw.n1, sw.n2) == (2, 1, 4, 3)
        assert (sw.tau1, sw.tau2) == (0.7, 0.3)
        assert sw.swapped() == spec

    def test_derivative_spec(self):
        spec = NGOperationSpec(1, 0, 0, 2, 1.0, 0.5)
        d = spec.derivative_spec()
        assert d.orders == (1, 1, 0, 0, 0, 0, 2, 2)
        assert d.prefactor == pytest.approx((-2.0) ** 3 / (1 * 1 * 1 * 2))


class TestOperationFromTable:
    def test_asymmetric_rows_act_on_mode_two(self):
        ps = operation_from_table("asym-ps", 2, 0.7)
        assert (ps.m1, ps.m2, ps.n1, ps.n2) == (0, 0, 0, 2)
        assert (ps.tau1, ps.tau2) == (1.0, 0.7)
        pa = operation_from_table("asym-pa", 1, 0.4)
        assert (pa.m1, pa.m2, pa.n1, pa.n2) == (0, 1, 0, 0)
        pc = operation_from_table("asym-pc", 3, 0.9)
        assert (pc.m1, pc.m2, pc.n1, pc.n2) == (0, 3, 0, 3)

    def test_symmetric_rows_act_on_both_modes(self):
        ps = operation_from_table("sym-ps", 1, 0.6)
        assert (ps.m1, ps.m2, ps.n1, ps.n2) == (0, 0, 1, 1)
        assert (ps.tau1, ps.tau2) == (0.6, 0.6)
        pa = operation_from_table("sym-pa", 2, 0.6)
        assert (pa.m1, pa.m2, pa.n1, pa.n2) == (2, 2, 0, 0)
        pc = operation_from_table("sym-pc", 2, 0.6)
        assert (pc.m1, pc.m2, pc.n1, pc.n2) == (2, 2, 2, 2)

    def test_kind_normalization_and_errors(self):
        assert operation_from_table("SYM_PA", 1, 0.5) == \
            operation_from_table("sym-pa", 1, 0.5)
        with pytest.raises(ParameterError):
            operation_from_table("mystery", 1, 0.5)
        with pytest.raises(ParameterError):
            operation_from_table("sym-ps", 0, 0.5)
        with pytest.raises(ParameterError):
            operation_from_table("sym-ps", 1, 0.0)

    # (m1, m2, n1, n2, tau1, tau2) of each kind, written out per kind
    _FIELDS = {
        "asym-ps": lambda n, tau: (0, 0, 0, n, 1.0, tau),
        "asym-pa": lambda n, tau: (0, n, 0, 0, 1.0, tau),
        "asym-pc": lambda n, tau: (0, n, 0, n, 1.0, tau),
        "sym-ps": lambda n, tau: (0, 0, n, n, tau, tau),
        "sym-pa": lambda n, tau: (n, n, 0, 0, tau, tau),
        "sym-pc": lambda n, tau: (n, n, n, n, tau, tau),
    }

    @pytest.mark.parametrize("kind", sorted(_FIELDS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_builds_what_the_checked_constructor_builds(self, kind, n):
        # the row builder skips __post_init__, so its specs are compared with
        # checked constructions field by field, types included: an int tau
        # of 1 stays the int 1
        taus = (1e-6, 0.37, 1, 1.0)
        row = _preset_row(kind, n, taus)
        assert len(row) == len(taus)
        for tau, spec in zip(taus, row):
            checked = NGOperationSpec(*self._FIELDS[kind](n, tau))
            for built in (spec, operation_from_table(kind, n, tau)):
                assert type(built) is NGOperationSpec
                assert built == checked and hash(built) == hash(checked)
                assert list(vars(built).items()) == list(vars(checked).items())
                assert [type(v) for v in vars(built).values()] == \
                    [type(v) for v in vars(checked).values()]
                with pytest.raises(dataclasses.FrozenInstanceError):
                    built.tau2 = 0.5
        assert set(_KIND_ROWS) == set(self._FIELDS)
        assert _preset_row(kind, n, ()) == []

    @pytest.mark.parametrize("kind, n, tau, message", [
        ("mystery", 1, 0.5, "unknown operation kind 'mystery'; expected one of "
                            "['asym-pa', 'asym-pc', 'asym-ps', 'sym-pa', 'sym-pc', 'sym-ps']"),
        ("sym-ps", 0, 0.5, "photon number n must be a positive integer, got 0"),
        ("sym-ps", True, 0.5, "photon number n must be a positive integer, got True"),
        ("asym-pa", 1, 0.0, "tau must lie in (0, 1], got 0.0"),
        ("asym-pa", 1, 1.5, "tau must lie in (0, 1], got 1.5"),
        ("sym-pc", 2, math.nan, "tau must lie in (0, 1], got nan"),
        ("sym-pc", 2, np.float32(0.5),
         "tau must be a real number in double precision, got np.float32(0.5)"),
    ], ids=["kind", "n-zero", "n-bool", "tau-zero", "tau-above-one", "tau-nan", "tau-float32"])
    def test_row_refuses_what_a_single_operation_refuses(self, kind, n, tau, message):
        # a bad tau in the middle of a row raises the single operation's text;
        # a later bad tau does not get there first
        for call in (lambda: operation_from_table(kind, n, tau),
                     lambda: _preset_row(kind, n, (0.3, tau, 0.7, 2.0))):
            with pytest.raises(ParameterError) as err:
                call()
            assert str(err.value) == message


class TestDeriveParams:
    def test_three_four_five_triangle(self):
        # lam = 0.6 gives sinh r = 0.75, cosh r = 1.25
        p = derive_params(0.6, NGOperationSpec(0, 0, 0, 0, 1.0, 0.25))
        assert p.sinh_r == pytest.approx(0.75)
        assert p.cosh_r == pytest.approx(1.25)
        assert p.r == pytest.approx(math.atanh(0.6))
        assert p.t2 == pytest.approx(0.5)
        assert p.refl2 == pytest.approx(math.sqrt(0.75))
        assert p.base_norm == pytest.approx(1.0 + 0.5625 * (1.0 - 0.25))

    def test_zero_squeezing(self):
        p = derive_params(0.0, tmsv_spec())
        assert p.sinh_r == 0.0
        assert p.cosh_r == 1.0
        assert p.base_norm == 1.0

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            derive_params(1.0, tmsv_spec())
        with pytest.raises(ParameterError):
            derive_params(-0.1, tmsv_spec())

    @pytest.mark.parametrize("lam", ["0.5", 0.5 + 0j, None, np.array(0.4),
                                     float("nan"), 1.0, -0.1])
    def test_bad_lambda_raises_parameter_error(self, lam):
        with pytest.raises(ParameterError) as one:
            derive_params(lam, tmsv_spec())
        # a batch checks lambda with the same message
        spec = NGOperationSpec(0, 0, 0, 1, 1.0, 0.5)
        with pytest.raises(ParameterError) as batch:
            derive_params(lam, (spec, spec))
        assert str(batch.value) == str(one.value)

    def test_batch_matches_single_evaluations(self):
        specs = [NGOperationSpec(0, 1, 1, 1, t1, t2)
                 for t1, t2 in ((0.3, 0.9), (1.0, 0.25), (0.64, 1.0))]
        for lam in (0.0, 0.6, 0.97):
            batch = derive_params(lam, specs)
            for b, spec in enumerate(specs):
                one = derive_params(lam, spec)
                assert batch.at(b) == one
                for form in (phase_space_form, wigner_coupling, wigner_aux_form):
                    assert np.array_equal(form(batch)[b], form(one)), form

    def test_batch_checks_taus_in_order(self):
        # the first bad tau raises what the spec's own check raises
        good = NGOperationSpec(0, 0, 0, 1, 1.0, 0.5)
        bad1, bad2 = (NGOperationSpec(0, 0, 0, 1, 1.0, 0.5) for _ in range(2))
        object.__setattr__(bad1, "tau1", 0.0)  # bypasses the spec's own check
        object.__setattr__(bad2, "tau2", 1.5)
        with pytest.raises(ParameterError, match="tau2 must lie in"):
            derive_params(0.5, (good, bad2, bad1))
        with pytest.raises(ParameterError, match="tau1 must lie in"):
            derive_params(0.5, (good, bad1, bad2))
        with pytest.raises(ParameterError, match="lambda must lie in"):
            derive_params(1.0, (bad1, bad2))

    def test_hyperbolic_identity(self):
        p = derive_params(0.37, tmsv_spec())
        assert p.cosh_r ** 2 - p.sinh_r ** 2 == pytest.approx(1.0)


class TestSpecialValueStructure:
    def test_phase_space_form_at_zero_squeezing(self):
        p = derive_params(0.0, NGOperationSpec(0, 0, 0, 0, 0.5, 0.5))
        mat = np.array(phase_space_form(p))
        assert np.allclose(mat, -np.eye(4))

    def test_wigner_coupling_vanishes_at_full_transmission(self):
        p = derive_params(0.5, tmsv_spec())
        assert not np.any(np.array(wigner_coupling(p)))

    def test_probability_form_at_full_transmission(self):
        # r1 = r2 = 0 leaves only the t-column couplings, scaled by -1/4
        p = derive_params(0.5, tmsv_spec())
        mat = np.array(probability_form(p))
        expected = np.zeros((8, 8))
        for i, j in ((0, 5), (1, 4), (2, 7), (3, 6)):
            expected[i, j] = expected[j, i] = -0.25
        assert np.allclose(mat, expected)

    def test_parity_weights_at_zero_squeezing(self):
        spec = NGOperationSpec(0, 0, 0, 0, 0.64, 0.36)
        p = derive_params(0.0, spec)
        phi = 0.83
        aux = parity_aux(p, phi)
        w = aux.weights
        r1sq, r2sq = 1.0 - 0.64, 1.0 - 0.36
        t1, t2 = 0.8, 0.6
        survivors = {
            0: 1.0,
            2: math.cos(phi) * r1sq,
            4: -math.sqrt(r1sq * r2sq) * math.sin(phi),
            6: t1,
            10: -math.cos(phi) * r2sq,
            14: t2,
        }
        for k in range(21):
            assert w[k] == pytest.approx(survivors.get(k, 0.0), abs=1e-15), k

    def test_parity_norm_closed_form(self):
        spec = NGOperationSpec(0, 0, 0, 0, 0.7, 0.9)
        lam, phi = 0.45, 0.31
        p = derive_params(lam, spec)
        aux = parity_aux(p, phi)
        prod = lam * lam * 0.7 * 0.9
        expect = math.sqrt(1.0 + prod * (prod + 2.0 * math.cos(2 * phi)))
        expect /= 1.0 - lam * lam
        assert aux.norm == pytest.approx(expect, rel=1e-14)

    def test_parity_aux_accepts_dual_phase(self):
        p = derive_params(0.3, NGOperationSpec(0, 0, 0, 0, 0.5, 0.5))
        aux = parity_aux(p, Dual(0.2, 1.0))
        assert isinstance(aux.norm, Dual)
        h = 1e-7
        lo = parity_aux(p, 0.2 - h).norm
        hi = parity_aux(p, 0.2 + h).norm
        assert aux.norm.deriv == pytest.approx((hi - lo) / (2 * h), rel=1e-6)

    def test_parity_aux_rejects_nonpositive_denominator(self):
        with pytest.raises(ConstructionError):
            ParityAux(phi=0.0, norm=1.0, weights=(0.0,) * 21)

    def test_moment_exponent_block_structure(self):
        p = derive_params(0.4, NGOperationSpec(0, 1, 0, 0, 1.0, 0.7))
        g = moment_exponent(p)
        assert g.dim == 12
        qu = np.array(probability_form(p))
        cx = np.array(moment_coupling(p))
        qx = np.array(moment_source_form(p))
        quad = np.array([[complex(g.quad[i][j]) for j in range(12)]
                         for i in range(12)])
        assert np.allclose(quad[:8, :8], qu)
        assert np.allclose(quad[:8, 8:], cx / 2.0)
        assert np.allclose(quad[8:, :8], cx.T / 2.0)
        assert np.allclose(quad[8:, 8:], qx)


# ---------------------------------------------------------------------------
# second transcription of the closed-form tables, raw unfactored style
# ---------------------------------------------------------------------------


def _raw_forms(lam, tau1, tau2):
    """All six parameter-space tables written out element by element."""
    r = math.atanh(lam)
    al, be = math.sinh(r), math.cosh(r)
    t1, t2 = math.sqrt(tau1), math.sqrt(tau2)
    r1, r2 = math.sqrt(1 - tau1), math.sqrt(1 - tau2)
    a0 = 1 + al ** 2 * (1 - tau1 * tau2)

    dg = al ** 2 * (t1 ** 2 * t2 ** 2 + 1) + 1
    m1 = (-1 / a0) * np.array([
        [dg, 0, -2 * al * be * t1 * t2, 0],
        [0, dg, 0, 2 * al * be * t1 * t2],
        [-2 * al * be * t1 * t2, 0, dg, 0],
        [0, 2 * al * be * t1 * t2, 0, dg]])

    m2 = (-1 / a0) * np.array([
        [-be**2 * r1, -1j * be**2 * r1, al * be * r1 * t1 * t2, -1j * al * be * r1 * t1 * t2],
        [be**2 * r1, -1j * be**2 * r1, -al * be * r1 * t1 * t2, -1j * al * be * r1 * t1 * t2],
        [al * be * r2 * t1 * t2, -1j * al * be * r2 * t1 * t2, -be**2 * r2, -1j * be**2 * r2],
        [-al * be * r2 * t1 * t2, -1j * al * be * r2 * t1 * t2, be**2 * r2, -1j * be**2 * r2],
        [-al**2 * r1 * t1 * t2**2, -1j * al**2 * r1 * t1 * t2**2, al * be * r1 * t2, -1j * al * be * r1 * t2],
        [al**2 * r1 * t1 * t2**2, -1j * al**2 * r1 * t1 * t2**2, -al * be * r1 * t2, -1j * al * be * r1 * t2],
        [al * be * r2 * t1, -1j * al * be * r2 * t1, -al**2 * r2 * t1**2 * t2, -1j * al**2 * r2 * t1**2 * t2],
        [-al * be * r2 * t1, -1j * al * be * r2 * t1, al**2 * r2 * t1**2 * t2, -1j * al**2 * r2 * t1**2 * t2]])

    m3 = (-1 / (4 * a0)) * np.array([
        [0, -be**2 * r1**2, -al * be * r1 * r2 * t1 * t2, 0, 0, al**2 * r2**2 * t1 + t1, -al * be * r1 * r2 * t1, 0],
        [-be**2 * r1**2, 0, 0, -al * be * r1 * r2 * t1 * t2, al**2 * r2**2 * t1 + t1, 0, 0, -al * be * r1 * r2 * t1],
        [-al * be * r1 * r2 * t1 * t2, 0, 0, -be**2 * r2**2, -al * be * r1 * r2 * t2, 0, 0, al**2 * r1**2 * t2 + t2],
        [0, -al * be * r1 * r2 * t1 * t2, -be**2 * r2**2, 0, 0, -al * be * r1 * r2 * t2, al**2 * r1**2 * t2 + t2, 0],
        [0, al**2 * r2**2 * t1 + t1, -al * be * r1 * r2 * t2, 0, 0, -al**2 * r1**2 * t2**2, -al * be * r1 * r2, 0],
        [al**2 * r2**2 * t1 + t1, 0, 0, -al * be * r1 * r2 * t2, -al**2 * r1**2 * t2**2, 0, 0, -al * be * r1 * r2],
        [-al * be * r1 * r2 * t1, 0, 0, al**2 * r1**2 * t2 + t2, -al * be * r1 * r2, 0, 0, -al**2 * r2**2 * t1**2],
        [0, -al * be * r1 * r2 * t1, al**2 * r1**2 * t2 + t2, 0, 0, -al * be * r1 * r2, -al**2 * r2**2 * t1**2, 0]])

    m4 = (-1 / (4 * a0)) * np.array([
        [0, be**2 * r1**2, -al * be * r1 * r2 * t1 * t2, 0, 0, al**2 * r2**2 * t1 + t1, al * be * r1 * r2 * t1, 0],
        [be**2 * r1**2, 0, 0, -al * be * r1 * r2 * t1 * t2, al**2 * r2**2 * t1 + t1, 0, 0, al * be * r1 * r2 * t1],
        [-al * be * r1 * r2 * t1 * t2, 0, 0, be**2 * r2**2, al * be * r1 * r2 * t2, 0, 0, al**2 * r1**2 * t2 + t2],
        [0, -al * be * r1 * r2 * t1 * t2, be**2 * r2**2, 0, 0, al * be * r1 * r2 * t2, al**2 * r1**2 * t2 + t2, 0],
        [0, al**2 * r2**2 * t1 + t1, al * be * r1 * r2 * t2, 0, 0, al**2 * r1**2 * t2**2, -al * be * r1 * r2, 0],
        [al**2 * r2**2 * t1 + t1, 0, 0, al * be * r1 * r2 * t2, al**2 * r1**2 * t2**2, 0, 0, -al * be * r1 * r2],
        [al * be * r1 * r2 * t1, 0, 0, al**2 * r1**2 * t2 + t2, -al * be * r1 * r2, 0, 0, al**2 * r2**2 * t1**2],
        [0, al * be * r1 * r2 * t1, al**2 * r1**2 * t2 + t2, 0, 0, -al * be * r1 * r2, al**2 * r2**2 * t1**2, 0]])

    m5 = (-1 / (2 * a0)) * np.array([
        [-be**2 * r1, -1j * be**2 * r1, -al * be * r1 * t1 * t2, 1j * al * be * r1 * t1 * t2],
        [be**2 * r1, -1j * be**2 * r1, al * be * r1 * t1 * t2, 1j * al * be * r1 * t1 * t2],
        [-al * be * r2 * t1 * t2, 1j * al * be * r2 * t1 * t2, -be**2 * r2, -1j * be**2 * r2],
        [al * be * r2 * t1 * t2, 1j * al * be * r2 * t1 * t2, be**2 * r2, -1j * be**2 * r2],
        [al**2 * r1 * t1 * t2**2, 1j * al**2 * r1 * t1 * t2**2, al * be * r1 * t2, -1j * al * be * r1 * t2],
        [-al**2 * r1 * t1 * t2**2, 1j * al**2 * r1 * t1 * t2**2, -al * be * r1 * t2, -1j * al * be * r1 * t2],
        [al * be * r2 * t1, -1j * al * be * r2 * t1, al**2 * r2 * t1**2 * t2, 1j * al**2 * r2 * t1**2 * t2],
        [-al * be * r2 * t1, -1j * al * be * r2 * t1, -al**2 * r2 * t1**2 * t2, 1j * al**2 * r2 * t1**2 * t2]])

    m6 = (1 / (4 * a0)) * np.array([
        [dg, 0, 2 * al * be * t1 * t2, 0],
        [0, dg, 0, -2 * al * be * t1 * t2],
        [2 * al * be * t1 * t2, 0, dg, 0],
        [0, -2 * al * be * t1 * t2, 0, dg]])

    return m1, m2, m3, m4, m5, m6


def _raw_parity_weights(lam, tau1, tau2, phi):
    """The 21 parity weights, raw unfactored style."""
    t1, t2 = math.sqrt(tau1), math.sqrt(tau2)
    r1, r2 = math.sqrt(1 - tau1), math.sqrt(1 - tau2)
    c1, s1 = math.cos(phi), math.sin(phi)
    c2, s2 = math.cos(2 * phi), math.sin(2 * phi)
    L = lam
    w = [0.0] * 21
    w[0] = 2 * c2 * L**2 * t1**2 * t2**2 + L**4 * t1**4 * t2**4 + 1
    w[1] = L * r1**2 * s2 * t1 * t2
    w[2] = c1 * r1**2 * (L**2 * t1**2 * t2**2 + 1)
    w[3] = L * r1 * r2 * t1 * t2 * (c2 + L**2 * t1**2 * t2**2)
    w[4] = r1 * r2 * s1 * (L**2 * t1**2 * t2**2 - 1)
    w[5] = L * r1**2 * s1 * t2 * (L**2 * t1**2 * t2**2 - 1)
    w[6] = L**2 * t2**2 * t1**3 * (c2 + L**2 * t2**2) + c2 * L**2 * t2**2 * t1 + t1
    w[7] = c1 * L * r1 * r2 * t1 * (L**2 * t1**2 * t2**2 + 1)
    w[8] = 2 * c1 * L**2 * r1 * r2 * s1 * t1**2 * t2
    w[9] = -2 * c1 * L * r2**2 * s1 * t1 * t2
    w[10] = -c1 * r2**2 * (L**2 * t1**2 * t2**2 + 1)
    w[11] = -c1 * L * r1 * r2 * t2 * (L**2 * t1**2 * t2**2 + 1)
    w[12] = -2 * c1 * L**2 * r1 * r2 * s1 * t1 * t2**2
    w[13] = L * r2**2 * s1 * t1 * (L**2 * t1**2 * t2**2 - 1)
    w[14] = L**2 * t1**2 * t2**3 * (c2 + L**2 * t1**2) + c2 * L**2 * t1**2 * t2 + t2
    w[15] = -L**3 * r1**2 * s2 * t1 * t2**3
    w[16] = -c1 * L**2 * r1**2 * t2**2 * (L**2 * t1**2 * t2**2 + 1)
    w[17] = -L * r1 * r2 * (c2 * L**2 * t1**2 * t2**2 + 1)
    w[18] = L**2 * r1 * r2 * s1 * t1 * t2 * (L**2 * t1**2 * t2**2 - 1)
    w[19] = L**3 * r2**2 * s2 * t1**3 * t2
    w[20] = c1 * L**2 * r2**2 * t1**2 * (L**2 * t1**2 * t2**2 + 1)
    return w


_SAMPLE_PARAMS = [
    (0.35, 0.62, 0.81),
    (0.72, 0.14, 0.53),
    (0.08, 0.97, 0.29),
    (0.55, 0.55, 0.55),
]


class TestSecondTranscription:
    @pytest.mark.parametrize("lam,tau1,tau2", _SAMPLE_PARAMS)
    def test_all_forms_match(self, lam, tau1, tau2):
        spec = NGOperationSpec(0, 0, 0, 0, tau1, tau2)
        p = derive_params(lam, spec)
        m1, m2, m3, m4, m5, m6 = _raw_forms(lam, tau1, tau2)
        for got, want, name in [
            (phase_space_form(p), m1, "phase_space_form"),
            (wigner_coupling(p), m2, "wigner_coupling"),
            (wigner_aux_form(p), m3, "wigner_aux_form"),
            (probability_form(p), m4, "probability_form"),
            (moment_coupling(p), m5, "moment_coupling"),
            (moment_source_form(p), m6, "moment_source_form"),
        ]:
            got = np.array(got, dtype=complex)
            assert np.allclose(got, want, rtol=1e-14, atol=1e-15), name

    @pytest.mark.parametrize("lam,tau1,tau2", _SAMPLE_PARAMS)
    @pytest.mark.parametrize("phi", [0.0, 0.47, 1.9, -0.8])
    def test_parity_weights_match(self, lam, tau1, tau2, phi):
        spec = NGOperationSpec(0, 0, 0, 0, tau1, tau2)
        p = derive_params(lam, spec)
        aux = parity_aux(p, phi)
        raw = _raw_parity_weights(lam, tau1, tau2, phi)
        for k in range(21):
            assert aux.weights[k] == pytest.approx(raw[k], abs=1e-14), k

    @pytest.mark.parametrize("lam,tau1,tau2", _SAMPLE_PARAMS)
    def test_parity_form_assembles_weights(self, lam, tau1, tau2):
        spec = NGOperationSpec(0, 0, 0, 0, tau1, tau2)
        p = derive_params(lam, spec)
        phi = 0.62
        aux = parity_aux(p, phi)
        mat = np.array(parity_form(p, aux))
        w = _raw_parity_weights(lam, tau1, tau2, phi)
        pattern = np.array([
            [w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]],
            [w[2], w[1], w[4], w[3], w[6], w[5], w[8], w[7]],
            [w[3], w[4], w[9], w[10], w[11], w[12], w[13], w[14]],
            [w[4], w[3], w[10], w[9], w[12], w[11], w[14], w[13]],
            [w[5], w[6], w[11], w[12], w[15], w[16], w[17], w[18]],
            [w[6], w[5], w[12], w[11], w[16], w[15], w[18], w[17]],
            [w[7], w[8], w[13], w[14], w[17], w[18], w[19], w[20]],
            [w[8], w[7], w[14], w[13], w[18], w[17], w[20], w[19]],
        ])
        assert np.allclose(mat, -pattern / (4 * w[0]), rtol=1e-13, atol=1e-15)
