"""Tests for the analytic layer: closed forms, invariants, and agreement with
the truncated Fock-space oracle.

Closed-form targets used below (squeezing parameter lam = tanh r):

* single-subtraction heralding probability lam^2 (1-tau)(1-lam^2)/(1-tau lam^2)^2
* bare squeezed-vacuum parity signal (1-lam^2)/sqrt(1 + 2 lam^2 cos 2phi + lam^4)
* bare quadrature moments <q1^2> = cosh(2r)/2, <q1 q2> = sinh(2r)/2
* bare Fisher information 4 lam^2/(1-lam^2)^2 and bound (1-lam^2)/(2 lam)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngtmsv.analytics import (
    PhaseSpacePoint,
    _real,
    j2_second_moment,
    merit,
    moment,
    parity_expectation,
    phase_sensitivity,
    qcrb,
    qfi,
    sensitivity_report,
    success_probability,
    weighted_merit,
    wigner,
    wigner_polynomial,
)
from ngtmsv.dual import Dual
from ngtmsv.errors import (
    ConsistencyError,
    DegenerateOperationError,
    DegenerateStateError,
    ParameterError,
    StationaryPointError,
)
from ngtmsv.model import NGOperationSpec, operation_from_table, tmsv_spec
from ngtmsv import oracle


class TestSuccessProbability:
    def test_single_subtraction_closed_form(self):
        for lam in (0.2, 0.5, 0.8):
            for tau in (0.3, 0.6, 0.9):
                spec = operation_from_table("asym-ps", 1, tau)
                want = (lam ** 2 * (1 - tau) * (1 - lam ** 2)
                        / (1 - tau * lam ** 2) ** 2)
                assert success_probability(lam, spec) == pytest.approx(
                    want, rel=1e-13), (lam, tau)

    def test_trivial_operation_is_certain(self):
        assert success_probability(0.5, tmsv_spec()) == pytest.approx(1.0, abs=1e-15)

    def test_catalysis_at_full_transmission_is_certain(self):
        for n in (1, 2):
            spec = operation_from_table("asym-pc", n, 1.0)
            assert success_probability(0.5, spec) == pytest.approx(
                1.0, abs=1e-13), n
        spec = operation_from_table("sym-pc", 1, 1.0)
        assert success_probability(0.5, spec) == pytest.approx(1.0, abs=1e-13)

    def test_impossible_heralding_has_zero_probability(self):
        # subtraction through a fully transmitting splitter reflects nothing
        spec = NGOperationSpec(0, 0, 1, 1, 1.0, 1.0)
        assert success_probability(0.5, spec) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.floats(0.05, 0.8),
        tau1=st.floats(0.1, 0.99),
        tau2=st.floats(0.1, 0.99),
        m1=st.integers(0, 2), m2=st.integers(0, 2),
        n1=st.integers(0, 2), n2=st.integers(0, 2),
    )
    def test_probability_in_unit_interval(self, lam, tau1, tau2, m1, m2, n1, n2):
        spec = NGOperationSpec(m1, m2, n1, n2, tau1, tau2)
        p = success_probability(lam, spec)
        assert 0.0 <= p <= 1.0

    def test_matches_oracle(self):
        cases = [
            (0.5, operation_from_table("sym-ps", 2, 0.7)),
            (0.6, operation_from_table("asym-pa", 1, 0.4)),
            (0.4, NGOperationSpec(1, 2, 1, 2, 0.6, 0.6)),
        ]
        for lam, spec in cases:
            _, want = oracle.prepare_ng_state(lam, spec)
            assert success_probability(lam, spec) == pytest.approx(
                want, rel=1e-10), (lam, spec)


class TestParitySignal:
    def test_bare_state_closed_form(self):
        for lam in (0.1, 0.5, 0.8):
            for phi in (0.0, 0.4, 1.2):
                want = (1 - lam ** 2) / math.sqrt(
                    1 + 2 * lam ** 2 * math.cos(2 * phi) + lam ** 4)
                got = parity_expectation(lam, tmsv_spec(), phi)
                assert got == pytest.approx(want, rel=1e-13), (lam, phi)

    def test_dual_slope_matches_finite_difference(self):
        spec = operation_from_table("sym-pa", 1, 0.7)
        lam, phi, h = 0.5, 0.6, 1e-6
        fd = parity_expectation(lam, spec, Dual(phi, 1.0))
        lo = parity_expectation(lam, spec, phi - h)
        hi = parity_expectation(lam, spec, phi + h)
        assert fd.value == pytest.approx(parity_expectation(lam, spec, phi))
        assert fd.deriv == pytest.approx((hi - lo) / (2 * h), rel=1e-8)

    def test_matches_oracle(self):
        cases = [
            (0.5, operation_from_table("asym-ps", 1, 0.6), 0.3),
            (0.6, operation_from_table("sym-pc", 1, 0.8), 0.9),
        ]
        for lam, spec, phi in cases:
            st_, _ = oracle.prepare_ng_state(lam, spec)
            rotated = oracle.mzi_apply(st_, phi)
            want = oracle.parity_expect(rotated)
            got = parity_expectation(lam, spec, phi)
            assert got == pytest.approx(want, abs=1e-10), (lam, spec, phi)

    def test_degenerate_heralding_raises(self):
        spec = NGOperationSpec(0, 0, 1, 1, 1.0, 1.0)
        with pytest.raises(DegenerateOperationError):
            parity_expectation(0.5, spec, 0.3)


class TestMoments:
    def test_zeroth_moment_is_exactly_one(self):
        spec = operation_from_table("sym-ps", 1, 0.7)
        assert moment(0.5, spec, (0, 0, 0, 0)) == 1.0

    def test_bare_state_second_moments(self):
        lam = 0.5
        ch2 = (1 + lam ** 2) / (1 - lam ** 2)   # cosh 2r
        sh2 = 2 * lam / (1 - lam ** 2)          # sinh 2r
        spec = tmsv_spec()
        assert moment(lam, spec, (2, 0, 0, 0)) == pytest.approx(ch2 / 2, rel=1e-13)
        assert moment(lam, spec, (0, 2, 0, 0)) == pytest.approx(ch2 / 2, rel=1e-13)
        assert moment(lam, spec, (1, 0, 1, 0)) == pytest.approx(sh2 / 2, rel=1e-13)
        assert moment(lam, spec, (0, 1, 0, 1)) == pytest.approx(-sh2 / 2, rel=1e-13)
        assert moment(lam, spec, (1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_index_validation(self):
        spec = tmsv_spec()
        with pytest.raises(ParameterError):
            moment(0.5, spec, (1, 2, 3))
        with pytest.raises(ParameterError):
            moment(0.5, spec, (1, -1, 0, 0))
        with pytest.raises(ParameterError):
            moment(0.5, spec, (3, 2, 0, 0))  # total 5 over default cap
        # raising the cap admits the higher order
        assert math.isfinite(moment(0.5, spec, (3, 2, 0, 1), max_total=6))


class TestFisherInformation:
    def test_bare_state_closed_forms(self):
        for lam in (0.2, 0.5, 0.8):
            want = 4 * lam ** 2 / (1 - lam ** 2) ** 2
            assert qfi(lam, tmsv_spec()) == pytest.approx(want, rel=1e-12)
            assert qcrb(lam, tmsv_spec()) == pytest.approx(
                (1 - lam ** 2) / (2 * lam), rel=1e-12)

    def test_matches_oracle(self):
        cases = [
            (0.5, operation_from_table("asym-pa", 2, 0.6)),
            (0.6, operation_from_table("sym-ps", 1, 0.8)),
            (0.4, NGOperationSpec(1, 2, 1, 2, 0.7, 0.7)),
        ]
        for lam, spec in cases:
            st_, _ = oracle.prepare_ng_state(lam, spec)
            j2, j2sq = oracle.j2_moments(st_)
            assert abs(j2) < 1e-10, (lam, spec)
            assert qfi(lam, spec) == pytest.approx(4 * j2sq, rel=1e-9), (lam, spec)
            assert j2_second_moment(lam, spec) == pytest.approx(j2sq, rel=1e-9)

    def test_no_phase_information_raises(self):
        with pytest.raises(DegenerateStateError):
            qfi(0.0, tmsv_spec())


class TestPhaseSensitivity:
    def test_bare_state_small_phase_approaches_bound(self):
        lam = 0.5
        dphi = phase_sensitivity(lam, tmsv_spec(), 1e-5)
        assert dphi == pytest.approx((1 - lam ** 2) / (2 * lam), rel=1e-6)

    def test_never_beats_quantum_bound(self):
        for lam, kind, n, tau, phi in [
            (0.5, "asym-ps", 1, 0.6, 0.2),
            (0.6, "sym-pa", 2, 0.8, 0.5),
            (0.3, "sym-pc", 1, 0.5, 0.9),
        ]:
            spec = operation_from_table(kind, n, tau)
            assert phase_sensitivity(lam, spec, phi) >= qcrb(lam, spec) - 1e-9

    def test_stationary_point_raises(self):
        with pytest.raises(StationaryPointError):
            phase_sensitivity(0.0, tmsv_spec(), 0.3)

    def test_sensitivity_against_oracle_derivative(self):
        lam, phi = 0.5, 0.4
        spec = operation_from_table("asym-ps", 1, 0.6)
        st_, _ = oracle.prepare_ng_state(lam, spec)
        h = 1e-5
        op = phi + math.pi / 2
        vals = [oracle.parity_expect(oracle.mzi_apply(st_, op + k * h))
                for k in (-1, 0, 1)]
        slope = (vals[2] - vals[0]) / (2 * h)
        want = math.sqrt(1 - vals[1] ** 2) / abs(slope)
        assert phase_sensitivity(lam, spec, phi) == pytest.approx(want, rel=1e-7)


class TestWigner:
    def test_vacuum_at_origin(self):
        val = wigner(0.0, tmsv_spec(), (0.0, 0.0, 0.0, 0.0))
        assert val == pytest.approx(1.0 / math.pi ** 2, rel=1e-13)

    def test_bare_state_gaussian(self):
        lam = 0.4
        ch2 = (1 + lam ** 2) / (1 - lam ** 2)
        sh2 = 2 * lam / (1 - lam ** 2)
        pt = (0.3, -0.2, 0.5, 0.1)
        q1, p1, q2, p2 = pt
        expo = (-ch2 * (q1 ** 2 + p1 ** 2 + q2 ** 2 + p2 ** 2)
                + 2 * sh2 * (q1 * q2 - p1 * p2))
        want = math.exp(expo) / math.pi ** 2
        assert wigner(lam, tmsv_spec(), pt) == pytest.approx(want, rel=1e-12)

    def test_matches_oracle(self):
        lam = 0.5
        spec = operation_from_table("sym-ps", 1, 0.7)
        st_, _ = oracle.prepare_ng_state(lam, spec)
        for pt in [(0.0, 0.0, 0.0, 0.0), (0.4, -0.1, -0.3, 0.2)]:
            want = oracle.wigner_point(st_, pt)
            assert wigner(lam, spec, pt) == pytest.approx(want, abs=1e-10), pt

    def test_kernel_matches_pointwise_evaluation(self):
        lam, tau = 0.4, 0.6
        rng = np.random.default_rng(11)
        for kind, n in [("asym-pa", 2), ("sym-ps", 2), ("asym-pc", 1),
                        ("sym-pa", 1), ("sym-pc", 2)]:
            spec = operation_from_table(kind, n, tau)
            kernel = wigner_polynomial(lam, spec)
            st_, _ = oracle.prepare_ng_state(lam, spec)
            for _ in range(3):
                pt = tuple(rng.uniform(-1.0, 1.0, size=4))
                want = oracle.wigner_point(st_, pt)
                assert kernel(pt) == pytest.approx(want, abs=1e-10), (kind, n, pt)

    def test_accepts_phase_space_point(self):
        pt = PhaseSpacePoint(0.1, 0.2, -0.3, 0.4)
        spec = tmsv_spec()
        assert wigner(0.3, spec, pt) == wigner(0.3, spec, pt.as_tuple())

    def test_point_validation(self):
        with pytest.raises(ParameterError):
            wigner(0.3, tmsv_spec(), (0.0, 0.0))
        for bad in ("1234", None, 1.5, (0.0, "x", 0.0, 0.0),
                    (0.0, 1j, 0.0, 0.0), (0.0, None, 0.0, 0.0)):
            with pytest.raises(ParameterError):
                wigner(0.3, tmsv_spec(), bad)
        with pytest.raises(ParameterError):
            PhaseSpacePoint(0.0, math.inf, 0.0, 0.0)


class TestSymmetries:
    @pytest.mark.parametrize("kind,n", [
        ("asym-ps", 1), ("asym-pa", 2), ("sym-pc", 1),
    ])
    def test_mode_swap_invariance(self, kind, n):
        lam, tau, phi = 0.5, 0.6, 0.4
        spec = operation_from_table(kind, n, tau)
        sw = spec.swapped()
        assert success_probability(lam, sw) == pytest.approx(
            success_probability(lam, spec), rel=1e-12)
        assert qfi(lam, sw) == pytest.approx(qfi(lam, spec), rel=1e-12)
        assert phase_sensitivity(lam, sw, phi) == pytest.approx(
            phase_sensitivity(lam, spec, phi), rel=1e-11)
        # the parity signal picks up the photon-count parity under the swap
        eps = (-1.0) ** spec.total_photons
        assert parity_expectation(lam, sw, phi) == pytest.approx(
            eps * parity_expectation(lam, spec, phi), rel=1e-11)

    def test_single_photon_subtraction_addition_equivalence(self):
        # adding one photon to mode 2 produces the mode-swap of subtracting
        # one from mode 1, so the swap-invariant figures coincide for the
        # one-sided placements (they differ for the two-sided ones)
        for lam, tau, phi in [(0.4, 0.7, 0.3), (0.6, 0.5, 0.8)]:
            a = operation_from_table("asym-ps", 1, tau)
            b = operation_from_table("asym-pa", 1, tau)
            assert phase_sensitivity(lam, a, phi) == pytest.approx(
                phase_sensitivity(lam, b, phi), abs=1e-11)
            assert qcrb(lam, a) == pytest.approx(qcrb(lam, b), abs=1e-11)


class TestReports:
    def test_report_is_self_consistent(self):
        lam, phi = 0.5, 0.3
        spec = operation_from_table("sym-ps", 1, 0.7)
        rep = sensitivity_report(lam, spec, phi)
        assert rep.probability == pytest.approx(success_probability(lam, spec))
        assert rep.parity == pytest.approx(parity_expectation(lam, spec, phi))
        assert rep.delta_phi == pytest.approx(phase_sensitivity(lam, spec, phi))
        assert rep.qfi == pytest.approx(qfi(lam, spec))
        assert rep.delta_phi_min == pytest.approx(qcrb(lam, spec))
        assert rep.merit == pytest.approx(merit(lam, spec, phi))
        assert rep.weighted_merit == pytest.approx(
            weighted_merit(lam, spec, phi))
        assert rep.weighted_merit == pytest.approx(rep.probability * rep.merit)

    def test_report_invariants_enforced(self):
        base = dict(lam=0.5, spec=tmsv_spec(), phi=0.1, probability=1.0,
                    parity=0.5, delta_phi=0.8, qfi=4.0, delta_phi_min=0.5,
                    merit=0.0, weighted_merit=0.0)
        from ngtmsv.analytics import SensitivityReport
        SensitivityReport(**base)  # sane values pass
        with pytest.raises(ConsistencyError):
            SensitivityReport(**{**base, "probability": 1.5})
        with pytest.raises(ConsistencyError):
            SensitivityReport(**{**base, "parity": -1.2})
        with pytest.raises(ConsistencyError):
            SensitivityReport(**{**base, "delta_phi": 0.1})

    def test_merit_sign_reflects_sensitivity_ordering(self):
        lam, phi = 0.5, 0.3
        spec = operation_from_table("asym-pc", 1, 0.9)
        ref = phase_sensitivity(lam, tmsv_spec(), phi)
        got = phase_sensitivity(lam, spec, phi)
        assert merit(lam, spec, phi) == pytest.approx(ref - got, rel=1e-12)


class TestResidueGuard:
    def test_real_extraction(self):
        assert _real(3.0 + 1e-14j, "x") == 3.0
        with pytest.raises(ConsistencyError):
            _real(1.0 + 1e-3j, "x")
