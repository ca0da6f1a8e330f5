"""Tests for the analytic layer: closed forms, invariants, and agreement with
the truncated Fock-space oracle.

Closed-form targets used below (squeezing parameter lam = tanh r):

* single-subtraction heralding probability lam^2 (1-tau)(1-lam^2)/(1-tau lam^2)^2
* bare squeezed-vacuum parity signal (1-lam^2)/sqrt(1 + 2 lam^2 cos 2phi + lam^4)
* bare quadrature moments <q1^2> = cosh(2r)/2, <q1 q2> = sinh(2r)/2
* bare Fisher information 4 lam^2/(1-lam^2)^2 and bound (1-lam^2)/(2 lam)
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ngtmsv import analytics
from ngtmsv.analytics import (
    PhaseSpacePoint,
    _real,
    _tmsv_reference,
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
from ngtmsv.model import (
    NGOperationSpec,
    derive_params,
    moment_exponent,
    operation_from_table,
    probability_form,
    tmsv_spec,
    wigner_aux_form,
)
from ngtmsv import oracle
from ngtmsv.series import (
    DerivativeSpec,
    GeneratingExponent,
    coefficient_array,
    mixed_partial_at_zero,
)
from ngtmsv.sweep import Axis, SweepRequest, run_sweep

_KINDS = ("asym-ps", "asym-pa", "asym-pc", "sym-ps", "sym-pa", "sym-pc")
# the 36 table rows at three transmissivities, the bare TMSV and two
# operations the table cannot name
_SPECS = ([operation_from_table(kind, n, tau) for kind in _KINDS
           for n in (1, 2) for tau in (0.3, 0.95, 1.0)]
          + [tmsv_spec(), NGOperationSpec(1, 2, 1, 2, 0.6, 0.6),
             NGOperationSpec(2, 0, 1, 1, 0.5, 0.8)])
_MOMENT_INDICES = [i for i in itertools.product(range(5), repeat=4)
                   if sum(i) <= 4]


def _reference_moment(lam, spec, idx):
    """A moment from the 12-variable moment exponent, normalized by the
    probability form's core: two engine runs of their own."""
    params = derive_params(lam, spec)
    dspec = spec.derivative_spec()
    core = mixed_partial_at_zero(
        GeneratingExponent(8, probability_form(params)), dspec)
    num = mixed_partial_at_zero(
        moment_exponent(params),
        DerivativeSpec(dspec.orders + tuple(idx), dspec.prefactor))
    return num.real / core.real


def _uncached(fn, *args):
    analytics._heralding.cache_clear()
    return fn(*args)


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


class TestHeraldingArray:
    def test_probability_array_is_signed_wigner_aux_array(self):
        # probability_form = D wigner_aux_form D with
        # D = diag(1,-1,1,-1,-1,1,-1,1), so one engine array serves both:
        # entries differ by (-1)^(j2+j4+j5+j7), exactly
        for spec in _SPECS:
            dspec = spec.derivative_spec()
            for lam in (0.0, 0.3, 0.75, 0.97):
                params = derive_params(lam, spec)
                prob = coefficient_array(
                    GeneratingExponent(8, probability_form(params)), dspec)[0]
                aux = coefficient_array(
                    GeneratingExponent(8, wigner_aux_form(params)), dspec)[0]
                signs = np.ones(prob.shape)
                for axis in (1, 3, 4, 6):
                    shape = [1] * 8
                    shape[axis] = prob.shape[axis]
                    signs = signs * (-1.0) ** np.arange(shape[axis]).reshape(shape)
                assert np.array_equal(prob, aux * signs), (spec, lam)


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

    def test_moments_digest(self):
        # Pins every moment of total order <= 4, <J2^2> and the QFI to the
        # last bit on 6 kinds x n in {1, 2} x 3 states: the moment blocks and
        # the normalizing core may be reshaped, never the numbers.
        indices = [i for i in itertools.product(range(5), repeat=4)
                   if sum(i) <= 4]
        rows = []
        for kind in ("asym-ps", "asym-pa", "asym-pc", "sym-ps", "sym-pa", "sym-pc"):
            for n in (1, 2):
                for lam, tau in ((0.3, 0.7), (0.6, 0.4), (0.9, 0.95)):
                    spec = operation_from_table(kind, n, tau)
                    head = f"{kind}-{n} {lam} {tau}"
                    for idx in indices:
                        rows.append(f"{head} {idx} {moment(lam, spec, idx)!r}\n")
                    rows.append(f"{head} j2 {j2_second_moment(lam, spec)!r}\n")
                    rows.append(f"{head} qfi {qfi(lam, spec)!r}\n")
        assert len(rows) == 2592
        digest = hashlib.sha256("".join(rows).encode()).hexdigest()
        assert digest == (
            "28822982e0a2db1e259e9594a712178c43bc8ab430f16748091db512d941749b")

    def test_digest_values_match_twelve_variable_engine(self):
        # every value the digest above pins, against the reference path
        def close(got, want):
            return abs(got - want) <= 1e-12 * max(1.0, abs(want))

        for kind in _KINDS:
            for n in (1, 2):
                for lam, tau in ((0.3, 0.7), (0.6, 0.4), (0.9, 0.95)):
                    spec = operation_from_table(kind, n, tau)
                    want = {idx: _reference_moment(lam, spec, idx)
                            for idx in _MOMENT_INDICES}
                    for idx in _MOMENT_INDICES:
                        got = moment(lam, spec, idx)
                        assert close(got, want[idx]), (kind, n, lam, idx, got)
                    j2 = (-0.125 + 0.25 * want[(2, 0, 0, 2)]
                          + 0.25 * want[(0, 2, 2, 0)] - 0.5 * want[(1, 1, 1, 1)])
                    assert close(j2_second_moment(lam, spec), j2), (kind, n, lam)
                    assert close(qfi(lam, spec), 4.0 * j2), (kind, n, lam)

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.floats(0.0, 0.97),
        tau1=st.floats(0.05, 1.0), tau2=st.floats(0.05, 1.0),
        photons=st.tuples(*[st.integers(0, 2)] * 4),
        idx=st.tuples(*[st.integers(0, 4)] * 4).filter(lambda i: sum(i) <= 4),
    )
    def test_moments_match_twelve_variable_engine(self, lam, tau1, tau2,
                                                  photons, idx):
        spec = NGOperationSpec(*photons, tau1, tau2)
        try:
            got = moment(lam, spec, idx)
        except DegenerateOperationError:
            assume(False)
        want = _reference_moment(lam, spec, idx)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("spec, idx", [
        (operation_from_table("asym-pc", 1, 0.6), (3, 2, 0, 1)),
        (operation_from_table("sym-ps", 1, 0.7), (2, 1, 2, 1)),
        (NGOperationSpec(1, 2, 1, 2, 0.6, 0.6), (0, 3, 3, 0)),
    ])
    def test_order_six_moments_match_twelve_variable_engine(self, spec, idx):
        got = moment(0.6, spec, idx, max_total=6)
        want = _reference_moment(0.6, spec, idx)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


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

    def test_kernel_matches_tensordot_contraction(self):
        # the kernel contracts one axis at a time; the reference is the
        # tensordot it replaced, and the arithmetic is the same
        rng = np.random.default_rng(5)
        for kind, n in [("asym-ps", 1), ("asym-pc", 2), ("sym-pa", 1),
                        ("sym-pc", 2)]:
            kernel = wigner_polynomial(0.6, operation_from_table(kind, n, 0.4))
            for _ in range(5):
                pt = tuple(rng.uniform(-1.5, 1.5, size=4))
                num = kernel.coeffs
                for ell in kernel.coupling @ pt:
                    powers = np.ones(num.shape[0], dtype=np.complex128)
                    for j in range(1, len(powers)):
                        powers[j] = powers[j - 1] * ell / j
                    num = np.tensordot(powers, num, axes=1)
                expo = sum(kernel.quad[i][j] * pt[i] * pt[j]
                           for i in range(4) for j in range(4))
                want = kernel.scale * complex(num).real * math.exp(expo)
                assert kernel(pt) == want, (kind, n, pt)

    @pytest.mark.parametrize("point", [
        (1e80, 0.0, 0.0, 0.0), (1e160, 0.0, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0),
        (1e200, 0.0, 1e200, 0.0), (0.0, -1e200, 0.0, 1e200),
    ])
    def test_far_points_vanish(self, point):
        # the Gaussian underflows there while the numerator's powers would
        # overflow; the value is 0 with no warning (warnings are errors here)
        spec = operation_from_table("sym-pc", 2, 0.7)
        assert wigner(0.5, spec, point) == 0.0
        assert wigner_polynomial(0.5, spec)(point) == 0.0

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
        for bad in (math.inf, "x", 1j, None):
            with pytest.raises(ParameterError):
                PhaseSpacePoint(0.0, bad, 0.0, 0.0)


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

    def test_figures_of_merit_digest(self):
        # Pins every report field, merit and weighted_merit to the last bit
        # on 6 kinds x n in {1, 2} x 3 points: work that is shared or skipped
        # must never change an output.
        rows = []
        for kind in ("asym-ps", "asym-pa", "asym-pc", "sym-ps", "sym-pa", "sym-pc"):
            for n in (1, 2):
                for lam, tau, phi in ((0.3, 0.7, 0.01), (0.6, 0.4, 0.2),
                                      (0.9, 0.95, 0.5)):
                    spec = operation_from_table(kind, n, tau)
                    rep = sensitivity_report(lam, spec, phi)
                    rows.append(repr((
                        rep.probability, rep.parity, rep.delta_phi, rep.qfi,
                        rep.delta_phi_min, rep.merit, rep.weighted_merit,
                        weighted_merit(lam, spec, phi), merit(lam, spec, phi))) + "\n")
        digest = hashlib.sha256("".join(rows).encode()).hexdigest()
        assert digest == (
            "62cffd7faf0ef92619da8aae61da53d9367e565642e92a107d2ba341f1b16516")

    def test_report_computes_heralding_core_once(self, monkeypatch):
        # probability, parity, sensitivity and the QFI share one heralding
        # array, and a second report at the same state reuses it
        lam, phi = 0.5, 0.2
        spec = operation_from_table("sym-pc", 1, 0.6)
        _tmsv_reference(lam, phi)  # the reference is its own evaluation
        analytics._heralding.cache_clear()
        calls = []
        real_form = analytics.wigner_aux_form

        def counting_form(params):
            calls.append(params)
            return real_form(params)

        monkeypatch.setattr(analytics, "wigner_aux_form", counting_form)
        sensitivity_report(lam, spec, phi)
        assert len(calls) == 1
        sensitivity_report(lam, spec, phi)
        assert len(calls) == 1

    def test_reference_once_per_phi_along_a_sweep(self, monkeypatch):
        # run_sweep varies phi fastest, so a phi axis must not evict the
        # references of the tau values that follow
        _tmsv_reference.cache_clear()
        real = analytics.phase_sensitivity
        calls = []

        def counting(lam, spec, phi):
            if spec == tmsv_spec():
                calls.append((lam, phi))
            return real(lam, spec, phi)

        monkeypatch.setattr(analytics, "phase_sensitivity", counting)
        records = run_sweep(SweepRequest(
            quantity="merit", preset="asym-pa-1", lam_axis=Axis((0.5,)),
            tau_axis=Axis((0.2, 0.4, 0.6, 0.8)), phi_axis=Axis((0.1, 0.2, 0.3))))
        assert sorted(calls) == [(0.5, 0.1), (0.5, 0.2), (0.5, 0.3)]
        for rec in records:
            spec = operation_from_table("asym-pa", 1, rec.tau2)
            assert rec.value == (
                _uncached(real, 0.5, tmsv_spec(), rec.phi)
                - _uncached(real, 0.5, spec, rec.phi)), rec

    def test_reference_reused_across_calls(self):
        # merit and weighted_merit share the bare-TMSV reference per
        # (lam, phi); interleaving keys must give the uncached values bit for bit
        spec = operation_from_table("asym-pa", 1, 0.6)
        for lam, phi in ((0.5, 0.2), (0.5, 0.3), (0.6, 0.2), (0.5, 0.2)):
            want = (phase_sensitivity(lam, tmsv_spec(), phi)
                    - phase_sensitivity(lam, spec, phi))
            assert merit(lam, spec, phi) == want
            assert weighted_merit(lam, spec, phi) == (
                success_probability(lam, spec) * want)
            assert merit(lam, spec, phi) == want

    def test_stationary_reference_raises_every_call(self):
        # an exception from the reference is never remembered as a value
        spec = operation_from_table("asym-ps", 1, 0.7)
        with pytest.raises(StationaryPointError):
            phase_sensitivity(0.5, tmsv_spec(), 0.0)
        for fn in (merit, weighted_merit, merit):
            with pytest.raises(StationaryPointError):
                fn(0.5, spec, 0.0)


class TestStateCache:
    def test_interleaved_states_match_uncached(self):
        # one state is kept; switching (lam, spec), and the bare-TMSV
        # reference in between, must never change a value's bits
        a = operation_from_table("sym-pc", 1, 0.6)
        b = operation_from_table("asym-pa", 2, 0.4)
        pt = (0.3, -0.2, 0.1, 0.4)
        queries = [
            (success_probability, ()), (wigner, (pt,)),
            (moment, ((1, 1, 0, 0),)), (moment, ((2, 0, 0, 2),)),
            (j2_second_moment, ()), (qfi, ()), (parity_expectation, (0.3,)),
            (phase_sensitivity, (0.3,)), (merit, (0.3,)),
        ]
        keys = [(0.5, a), (0.6, a), (0.5, b), (0.5, a), (0.6, a), (0.5, b)]
        want = {key: [repr(_uncached(fn, *key, *args)) for fn, args in queries]
                for key in set(keys)}
        for key in keys:
            got = [repr(fn(*key, *args)) for fn, args in queries]
            assert got == want[key], key

    def test_degenerate_state_raises_every_call(self):
        # a zero-probability state is kept, but never read past the floor
        spec = NGOperationSpec(0, 0, 1, 1, 1.0, 1.0)
        assert success_probability(0.5, spec) == 0.0
        for _ in range(2):
            for fn, args in ((moment, ((1, 0, 0, 0),)), (j2_second_moment, ()),
                             (qfi, ()), (wigner_polynomial, ()),
                             (wigner, ((0.0, 0.0, 0.0, 0.0),)),
                             (parity_expectation, (0.3,))):
                with pytest.raises(DegenerateOperationError):
                    fn(0.5, spec, *args)

    def test_probe_runs_heralding_engine_once(self, monkeypatch):
        # a state queried for its kernel, Wigner values, every moment of
        # order <= 2 and the QFI: one 8-variable array and one 4-variable
        # moment-source array, and no other engine run
        calls = []
        real = analytics.coefficient_array

        def counting(exponent, spec):
            calls.append(exponent.dim)
            return real(exponent, spec)

        def forbidden(*args):
            raise AssertionError("the engine ran outside the state")

        monkeypatch.setattr(analytics, "coefficient_array", counting)
        monkeypatch.setattr(analytics, "mixed_partial_at_zero", forbidden)
        analytics._heralding.cache_clear()
        lam, spec = 0.45, operation_from_table("sym-pc", 1, 0.35)
        points = np.random.default_rng(3).uniform(-1.5, 1.5, size=(24, 4))
        kernel = wigner_polynomial(lam, spec)
        for pt in points:
            kernel(pt)
        for pt in points[:3]:
            wigner(lam, spec, pt)
        for idx in itertools.product(range(3), repeat=4):
            if sum(idx) <= 2:
                moment(lam, spec, idx)
        qfi(lam, spec)
        assert calls == [8, 4]


class TestResidueGuard:
    def test_real_extraction(self):
        assert _real(3.0 + 1e-14j, "x") == 3.0
        with pytest.raises(ConsistencyError):
            _real(1.0 + 1e-3j, "x")
