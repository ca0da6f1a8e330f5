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
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ngtmsv import analytics
from ngtmsv.analytics import (
    PhaseSpacePoint,
    _herald_core,
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
    parity_aux,
    parity_form,
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
from ngtmsv.sweep import Axis, SweepRequest, parse_axis, run_sweep

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


def _engine_parity(lam, spec, phi):
    """The parity signal from the retained 21-weight parity form: an engine
    run of its own, normalized by the state's core with the same checks."""
    state = analytics._heralding(lam, spec)
    params = state.params
    if state.core / params.base_norm < analytics._PROB_FLOOR:
        raise DegenerateOperationError("reference parity undefined")
    aux = parity_aux(params, phi)
    num = _herald_core(params, spec, parity_form(params, aux))
    if isinstance(num, Dual):
        num = Dual(_real(num.value, "reference"), _real(num.deriv, "reference"))
    else:
        num = _real(num, "reference")
    return params.base_norm * num / (aux.norm * state.core)


def _herald_condition(quad, dspec):
    """The heralding derivative of exp(u^T |Q| u) over that of
    exp(u^T Q u): it bounds the terms the derivative cancels relative to
    its result, so double rounding can move the result by about 2^-53
    times it."""
    dim = len(quad)
    plain = abs(mixed_partial_at_zero(GeneratingExponent(dim, quad), dspec))
    bound = abs(mixed_partial_at_zero(
        GeneratingExponent(dim, [[abs(x) for x in row] for row in quad]), dspec))
    return bound / plain if plain else math.inf


def _engine_condition(lam, spec, phi):
    """A condition number of the engine's parity signal: the heralding
    condition of the parity form at ``phi`` plus that of the probability
    form. It is about 2 for most states and reaches 1e9 at lambda = 1e-4
    with photons added and subtracted."""
    params = analytics._heralding(lam, spec).params
    dspec = spec.derivative_spec()
    return sum(_herald_condition(quad, dspec) for quad in (
        parity_form(params, parity_aux(params, phi)), probability_form(params)))


def _moment_condition(lam, spec, idx):
    """The same condition number for a moment: the heralding condition of
    the 12-variable moment exponent plus that of the probability form."""
    params = derive_params(lam, spec)
    dspec = spec.derivative_spec()
    return (_herald_condition(moment_exponent(params).quad,
                              DerivativeSpec(dspec.orders + tuple(idx), dspec.prefactor))
            + _herald_condition(probability_form(params), dspec))


def _engine_sensitivity(lam, spec, phi):
    """delta_phi as phase_sensitivity computes it, from the engine parity,
    and a bound on its move when the signal and the slope at the operating
    point move by (df, dslope)."""
    fd = _engine_parity(lam, spec, Dual(phi + math.pi / 2.0, 1.0))
    if abs(fd.deriv) < analytics._SLOPE_FLOOR:
        raise StationaryPointError("reference slope vanishes")
    dphi = math.sqrt(max(1.0 - fd.value * fd.value, 0.0)) / abs(fd.deriv)

    def bound(df, dslope):
        # 1.1 x the distance from dphi to the ends of the range that
        # sqrt(1 - f*f)/|f'| spans when f and f' move by up to |df| and
        # |dslope|. Each end adds the rounding of 1 - f*f (2^-52 absolute,
        # as f*f rounds by 2^-53 and the difference is exact near f*f = 1)
        # and of the root and the quotient (2^-51 relative). To first
        # order this is 1.1 x (|f| |df| / (1 - f^2) + |dslope| / |f'|); at a
        # fringe top, where 1 - f^2 is itself rounding, it stays a bound.
        f, slope = abs(fd.value), abs(fd.deriv)
        if abs(dslope) >= slope:
            return math.inf
        var_lo = 1.0 - (f + abs(df)) ** 2 - 2.0 ** -52
        var_hi = 1.0 - max(f - abs(df), 0.0) ** 2 + 2.0 ** -52
        lo = math.sqrt(max(var_lo, 0.0)) / (slope + abs(dslope)) * (1 - 2.0 ** -51)
        hi = math.sqrt(max(var_hi, 0.0)) / (slope - abs(dslope)) * (1 + 2.0 ** -51)
        return 1.1 * max(dphi - lo, hi - dphi)

    return dphi, fd, bound


def _outcome(fn, *args):
    """The value, or the error class a sweep turns into a status."""
    try:
        return fn(*args)
    except (DegenerateOperationError, DegenerateStateError,
            StationaryPointError) as err:
        return type(err)


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

    def test_batch_of_one_holds_the_real_part_of_the_single_exponent(self):
        # the engine's real arithmetic for a batch against its complex
        # arithmetic for one exponent, bit for bit; the digest pins entries
        # that no output reads, and real arithmetic does not depend on the CPU
        digest = hashlib.sha256()
        for spec in _SPECS:
            dspec = spec.derivative_spec()
            for lam in (0.0, 0.01, 0.5, 0.97):
                form = wigner_aux_form(derive_params(lam, (spec,)))
                batch = coefficient_array(GeneratingExponent(8, form), dspec)[0, 0]
                alone = coefficient_array(GeneratingExponent(8, form[0]), dspec)[0]
                assert batch.tobytes() == alone.real.tobytes(), (spec, lam)
                assert not alone.imag.any(), (spec, lam)
                digest.update(batch.tobytes())
        assert digest.hexdigest() == (
            "b742a0f34838a89b42484bf169a2034bcda8d7608f1253d705ee89e873f6dc61")


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

    @staticmethod
    def _check_against_engine(lam, spec, phi):
        want = _outcome(_engine_parity, lam, spec, Dual(phi, 1.0))
        got = _outcome(parity_expectation, lam, spec, Dual(phi, 1.0))
        if isinstance(want, type):
            assert got is want, (lam, spec, phi)
            return
        for g, w in ((got.value, want.value), (got.deriv, want.deriv)):
            if abs(g - w) > 1e-12 * max(1.0, abs(w)):
                # an ill-conditioned state, where the engine's own rounding
                # bound is wider: against a 50-digit evaluation both paths
                # stay within 4 x 2^-53 x the condition number
                cond = _engine_condition(lam, spec, phi)
                assert abs(g - w) <= 32 * 2.0 ** -53 * cond * max(1.0, abs(w)), (
                    lam, spec, phi, g, w, cond)

    def test_quadrature_matches_parity_form_engine(self):
        # the Gauss-Hermite plane integral against the 21-weight parity
        # form's own engine run: signal and slope, and every status
        for spec in _SPECS:
            for lam in (0, 0.01, 0.3, 0.75, 0.97):
                for phi in (0.01, 0.3, 1, 2.5):
                    self._check_against_engine(lam, spec, phi)

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.floats(0.0, 0.97),
        tau1=st.floats(0.05, 1.0), tau2=st.floats(0.05, 1.0),
        m1=st.integers(0, 2), m2=st.integers(0, 2),
        n1=st.integers(0, 2), n2=st.integers(0, 2),
        phi=st.floats(-1e12, 1e12),
    )
    def test_quadrature_matches_parity_form_engine_anywhere(
            self, lam, tau1, tau2, m1, m2, n1, n2, phi):
        self._check_against_engine(
            lam, NGOperationSpec(m1, m2, n1, n2, tau1, tau2), phi)

    @pytest.mark.xfail(
        strict=True, raises=ConsistencyError,
        reason="a heralding core lost to rounding: one photon catalysed "
               "through a 50:50 splitter leaves no one-photon component, so "
               "at lambda = 1e-14 the core is about 1e16 times smaller than "
               "the terms it sums; the quadrature reads a signal of 1.07 and "
               "raises ConsistencyError, the parity-form engine reads 0.33")
    def test_quadrature_where_the_core_is_lost_to_rounding(self):
        # a draw of the test above, kept here while the fault stands
        self._check_against_engine(1e-14, NGOperationSpec(0, 1, 1, 1, 0.75, 0.5), 1.0)

    @pytest.mark.parametrize("top", [math.pi / 2, 3 * math.pi / 2, -math.pi / 2])
    def test_signal_symmetry_about_fringe_tops(self, top):
        # the premise of the fringe-top slope, on the parity-form engine:
        # a heralded state's components share the photon difference d, so
        # their photon totals have d's parity, and f(pi - phi) = (-1)^d f(phi)
        for spec in _SPECS:
            sign = -1.0 if spec.total_photons % 2 else 1.0
            for lam in (0.3, 0.75):
                for h in (0.3, 1.1):
                    plus = _outcome(_engine_parity, lam, spec, top + h)
                    if isinstance(plus, type):
                        continue
                    minus = _engine_parity(lam, spec, top - h)
                    assert abs(plus - sign * minus) <= 1e-14, (spec, lam, top, h)

    def test_fringe_top_slope_matches_engine(self):
        # within the window of a fringe top of an even photon total the slope
        # is the curvature times the distance to it: as exact as the
        # engine's, where the quadrature's own slope carries ~1e-13 of
        # rounding from terms that cancel
        for spec in _SPECS:
            if spec.total_photons % 2:
                continue
            for lam in (0.3, 0.75, 0.97):
                for at in (math.pi / 2, 3 * math.pi / 2, -math.pi / 2,
                           math.pi / 2 + 5e-10):
                    want = _outcome(_engine_parity, lam, spec, Dual(at, 1.0))
                    if isinstance(want, type):
                        continue
                    got = parity_expectation(lam, spec, Dual(at, 1.0))
                    assert abs(got.deriv - want.deriv) <= 1e-11 * abs(want.deriv), (
                        spec, lam, at, got.deriv, want.deriv)

    def test_bare_state_bits_unchanged(self):
        # the TMSV numerator is exactly 1, so the signal and its slope are
        # the closed-form prefactor alone, as with the parity-form engine:
        # sha256 of the repr of 60 values as that engine gave them
        lines = []
        for lam in (0, 0.01, 0.3, 0.75, 0.97):
            for phi in (0.01, 0.3, 1, 2.5):
                fd = parity_expectation(lam, tmsv_spec(), Dual(phi, 1.0))
                lines += [parity_expectation(lam, tmsv_spec(), phi),
                          fd.value, fd.deriv]
        text = "".join(repr(v) + "\n" for v in lines)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "65cb5959336ba5565fff9687ddac98fecd5d561353036fb3194028e0edb423b7")


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
    @example(lam=0.00390625, tau1=0.5, tau2=0.5, photons=(0, 1, 1, 1), idx=(0, 0, 0, 2))
    def test_moments_match_twelve_variable_engine(self, lam, tau1, tau2,
                                                  photons, idx):
        spec = NGOperationSpec(*photons, tau1, tau2)
        try:
            got = moment(lam, spec, idx)
        except DegenerateOperationError:
            assume(False)
        want = _reference_moment(lam, spec, idx)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            # an ill-conditioned state, as in _check_against_engine: against
            # a 50-digit evaluation both paths stay within 4 x 2^-53 x the
            # condition number (test_small_lambda_moment_at_fifty_digits)
            cond = _moment_condition(lam, spec, idx)
            assert abs(got - want) <= 32 * 2.0 ** -53 * cond * max(1.0, abs(want)), (
                lam, spec, idx, got, want, cond)

    def test_small_lambda_moment_at_fifty_digits(self):
        # The draw above that once failed the plain 1e-12 check: its two
        # evaluations differ by 3.8e-11 relative. The state is
        # sum_n c_n K1(n) K2(n) |n-1, n>: subtraction on mode 1 and
        # catalysis on mode 2, with |K1|^2 = n t^2(n-1) r^2 and
        # K2 = t^(n-1) (t^2 - n r^2), so mode 2 is diagonal and
        # <p2^2> = <n2> + 1/2 exactly. At 50 digits both evaluations lie
        # within 4 x 2^-53 x the condition number (8.4e5) of that value.
        lam, spec, idx = 0.00390625, NGOperationSpec(0, 1, 1, 1, 0.5, 0.5), (0, 0, 0, 2)
        with mpmath.workdps(50):
            x, t2 = mpmath.mpf(lam) ** 2, mpmath.mpf(0.5)
            r2 = 1 - t2
            weights = [x ** n * n * (t2 * t2) ** (n - 1) * r2 * (t2 - n * r2) ** 2
                       for n in range(1, 60)]
            exact = float(sum(n * w for n, w in enumerate(weights, 1)) / sum(weights)
                          + mpmath.mpf(1) / 2)
        bound = 4 * 2.0 ** -53 * _moment_condition(lam, spec, idx) * exact
        for value in (moment(lam, spec, idx), _reference_moment(lam, spec, idx)):
            assert abs(value - exact) <= bound, (value, exact, bound)

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

    @staticmethod
    def _status_changes(phi, lams=(0, 0.01, 0.3, 0.75, 0.97)):
        """Check delta_phi and merit against their values on the parity-form
        engine over every spec and the given lambdas at one phi: where both
        are values, the move is within the bound of
        :func:`_engine_sensitivity`. Returns the points whose status
        changed, with both outcomes."""
        changes = []
        for spec in _SPECS:
            for lam in lams:
                ref = _outcome(_engine_sensitivity, lam, tmsv_spec(), phi)
                want = _outcome(_engine_sensitivity, lam, spec, phi)
                got = _outcome(phase_sensitivity, lam, spec, phi)
                got_merit = _outcome(merit, lam, spec, phi)
                key = (lam, spec, phi)
                if isinstance(want, type) or isinstance(got, type):
                    if got is not want:
                        changes.append((key, want, got))
                    continue
                dphi, fd, bound = want
                new = parity_expectation(lam, spec, Dual(phi + math.pi / 2.0, 1.0))
                allowed = bound(new.value - fd.value, new.deriv - fd.deriv)
                assert abs(got - dphi) <= allowed, key
                if isinstance(ref, type):
                    assert got_merit is ref, key
                else:
                    # the reference is the bare state, whose bits are
                    # unchanged; each difference rounds once
                    want_merit = ref[0] - dphi
                    assert abs(got_merit - want_merit) <= (
                        allowed + math.ulp(max(abs(got_merit), abs(want_merit)))), key
        return changes

    @pytest.mark.parametrize("phi", [0.01, 0.3, 1, 2.5])
    def test_moves_within_propagation_bound(self, phi):
        # delta_phi and merit from the quadrature move from their values on
        # the parity-form engine by no more than the signal and slope moves
        # propagate, and no status changes
        assert self._status_changes(phi) == []

    def test_fringe_top_statuses_unchanged(self):
        # at phi = 0 the operating point fl(pi/2) is a fringe top of every
        # even photon total, where the slope f'' * 6.1e-17 falls on either
        # side of the stationary floor; a denser lambda grid than above
        lams = (0, 0.01, 0.3) + tuple(round(0.05 + 0.04 * i, 2) for i in range(24))
        assert self._status_changes(0.0, lams) == []

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
            "cc6f8713ed3c6e1b893d35641771f8c30d5ea7497fc7d572d83f60bb2c5ccf5d")

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
        # moment-source array, both batches of one, and no other engine run
        calls = []
        real = analytics.coefficient_array

        def counting(exponent, spec):
            calls.append((exponent.dim, exponent.batch))
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
        assert calls == [(8, (1,)), (4, (1,))]

    def test_sweep_queries_run_heralding_engine_once(self, monkeypatch):
        # merit, weighted merit and delta_phi read the parity signal and its
        # slope from the state's array; the report adds only the QFI's
        # moment-source array; both are batches of one
        lam, phi = 0.45, 0.3
        spec = operation_from_table("sym-pc", 1, 0.35)
        _tmsv_reference(lam, phi)  # the reference is its own state
        calls = []
        real = analytics.coefficient_array

        def counting(exponent, spec):
            calls.append((exponent.dim, exponent.batch))
            return real(exponent, spec)

        def forbidden(*args):
            raise AssertionError("the engine ran outside the state")

        monkeypatch.setattr(analytics, "coefficient_array", counting)
        monkeypatch.setattr(analytics, "mixed_partial_at_zero", forbidden)
        analytics._heralding.cache_clear()
        merit(lam, spec, phi)
        weighted_merit(lam, spec, phi)
        phase_sensitivity(lam, spec, phi)
        assert calls == [(8, (1,))]
        sensitivity_report(lam, spec, phi)
        assert calls == [(8, (1,)), (4, (1,))]


_ASYM_PA = operation_from_table("asym-pa", 1, 0.6)


class TestParameterTypes:
    @pytest.mark.parametrize("call", [
        lambda: success_probability(0.5 + 0j, _ASYM_PA),
        lambda: operation_from_table("asym-ps", 1, "0.5"),
        lambda: NGOperationSpec(0, 0, 1, 0, "0.5"),
        lambda: merit(0.5, _ASYM_PA, "0.3"),
        lambda: phase_sensitivity(0.5, _ASYM_PA, None),
        lambda: qfi(np.array(0.4), _ASYM_PA),
        lambda: NGOperationSpec(True, 0, 0, 0),
        lambda: operation_from_table("asym-ps", True, 0.5),
        lambda: NGOperationSpec(0, 1, 0, 0, 1.0, True),
        lambda: operation_from_table("asym-pa", 1, True),
        lambda: success_probability(False, _ASYM_PA),
        lambda: phase_sensitivity(0.5, _ASYM_PA, True),
        lambda: wigner(0.5, _ASYM_PA, (True, 0, 0, 0)),
        lambda: PhaseSpacePoint(True, 0.0, 0.0, 0.0),
        lambda: moment(0.5, _ASYM_PA, (True, 0, 0, 1)),
        lambda: operation_from_table(3, 1, 0.5),
    ], ids=["complex-lambda", "str-tau-table", "str-tau-spec", "str-phi-merit",
            "none-phi", "array-lambda", "bool-photons-spec", "bool-photons-table",
            "bool-tau-spec", "bool-tau-table", "bool-lambda", "bool-phi", "bool-point",
            "bool-phase-space-point", "bool-moment-index", "int-kind"])
    def test_non_real_parameters_raise_parameter_error(self, call):
        with pytest.raises(ParameterError):
            call()

    @pytest.mark.parametrize("fn", [parity_expectation, phase_sensitivity, merit,
                                    weighted_merit, sensitivity_report])
    def test_phase_checked_before_the_state_is_evaluated(self, fn):
        analytics._heralding.cache_clear()
        with pytest.raises(ParameterError):
            fn(0.5, _ASYM_PA, math.nan)
        assert analytics._heralding.cache_info().currsize == 0

    def test_numpy_scalars_are_accepted(self):
        # the checks take numpy's real scalars, with the values of Python's
        spec = operation_from_table("asym-pa", 1, np.float64(0.6))
        assert spec == _ASYM_PA
        assert success_probability(np.float64(0.5), spec) == (
            success_probability(0.5, spec))
        assert merit(np.float64(0.5), spec, np.float64(0.3)) == merit(0.5, spec, 0.3)
        assert qfi(np.int64(0), spec) == qfi(0, spec)


class TestResidueGuard:
    def test_real_extraction(self):
        assert _real(3.0 + 1e-14j, "x") == 3.0
        with pytest.raises(ConsistencyError):
            _real(1.0 + 1e-3j, "x")


def _pointwise(request):
    """The (repr(value), status) of every grid point of ``request``, in grid
    order, from the public per-point functions; an error that is not a
    status propagates from the first point that raises it."""
    functions = {
        "probability": lambda lam, spec, phi: success_probability(lam, spec),
        "qfi": lambda lam, spec, phi: qfi(lam, spec),
        "parity": parity_expectation,
        "sensitivity": phase_sensitivity,
        "merit": merit,
        "weighted_merit": weighted_merit,
        "wigner": lambda lam, spec, phi: wigner(lam, spec, request.point),
    }
    fn = functions[request.quantity]
    out = []
    for lam in request.lam_axis.values:
        for tau in request.tau_axis.values:
            spec = request.spec_for(tau)
            for phi in request.phi_axis.values:
                value = _outcome(fn, lam, spec, phi)
                if value in (DegenerateOperationError, DegenerateStateError):
                    out.append(("None", "degenerate"))
                elif value is StationaryPointError:
                    out.append(("None", "stationary"))
                else:
                    out.append((repr(value), "ok"))
    return out


_BATCH_REQUESTS = ([{"preset": f"{kind}-{n}"} for kind in _KINDS for n in (1, 2)]
                   + [{"photons": (1, 2, 1, 2)},
                      {"photons": (1, 0, 0, 2), "tau_pair": (0.6, 0.8)}])


class TestBatchedSweep:
    """run_sweep evaluates a lambda-row in chunks of tau values, one
    heralding array per chunk; every record must be what the per-point
    functions give, bit for bit."""

    @pytest.mark.parametrize("kw", _BATCH_REQUESTS,
                             ids=[str(next(iter(kw.values()))) for kw in _BATCH_REQUESTS])
    def test_records_match_per_point_functions(self, kw):
        for quantity in ("probability", "parity", "sensitivity", "merit",
                         "weighted_merit", "qfi", "wigner"):
            request = SweepRequest(
                quantity=quantity, lam_axis=Axis((0.0, 0.01, 0.5, 0.97)),
                tau_axis=Axis((0.3, 0.8, 1.0)),
                phi_axis=Axis((0.0, 0.01, math.pi / 2, 2.5)),
                point=(0.3, -0.2, 0.1, 0.4) if quantity == "wigner" else None, **kw)
            got = [(repr(rec.value), rec.status) for rec in run_sweep(request)]
            assert got == _pointwise(request), (kw, quantity)

    def test_all_degenerate_rows(self):
        # subtraction at full transmission never heralds: no point of any
        # chunk has a value (merit's reference is stationary at phi = 0),
        # and no division by the zero probability may warn
        for quantity in ("parity", "sensitivity", "merit", "weighted_merit", "qfi"):
            request = SweepRequest(quantity=quantity, preset="asym-ps-2",
                                   lam_axis=Axis((0.3, 0.9)), tau_axis=Axis((1.0, 1.0)),
                                   phi_axis=Axis((0.0, 0.4)))
            records = run_sweep(request)
            assert "ok" not in {rec.status for rec in records}
            assert [(repr(r.value), r.status) for r in records] == _pointwise(request)

    @pytest.mark.parametrize("quantity, photons", [
        ("sensitivity", (3, 3, 0, 0)), ("weighted_merit", (0, 0, 3, 0))])
    def test_first_error_in_grid_order(self, quantity, photons):
        # lambda = 0.9999 loses the parity signal's last digits: the state's
        # signal (sensitivity) or the bare-TMSV reference's (weighted merit)
        # exceeds 1 in magnitude at some points, which is not a status
        request = SweepRequest(quantity=quantity, photons=photons,
                               lam_axis=Axis((0.5, 0.9999)),
                               tau_axis=Axis((0.5, 0.999999, 1.0)),
                               phi_axis=Axis((0.3, 0.0, 1e-9)))
        with pytest.raises(ConsistencyError) as want:
            _pointwise(request)
        with pytest.raises(ConsistencyError) as got:
            run_sweep(request)
        assert str(got.value) == str(want.value)

    def test_chunk_specs_must_share_photon_numbers(self):
        # one heralding derivative serves a chunk: specs with other photon
        # numbers would silently get the first spec's
        mixed = [operation_from_table("asym-ps", 1, 0.6),
                 operation_from_table("asym-pa", 2, 0.6)]
        for quantity in ("probability", "merit"):
            with pytest.raises(ParameterError, match="photon numbers"):
                analytics.evaluate_chunk(quantity, 0.5, mixed, [0.1])
            assert analytics.evaluate_chunk(quantity, 0.5, [], [0.1]) == []
        same = [NGOperationSpec(0, 1, 0, 0, 1.0, 0.6), operation_from_table("asym-pa", 1, 0.9)]
        got = analytics.evaluate_chunk("weighted_merit", 0.5, same, [0.1])
        assert got == [weighted_merit(0.5, spec, 0.1) for spec in same]

    def test_one_engine_call_per_chunk(self, monkeypatch):
        # a 101-point asym-pa-1 row (4 entries per point) is one chunk, and
        # the bare-TMSV reference is one more call; a 21-point sym-pc-2 row
        # (3^8 entries per point) runs one state per chunk
        calls = []
        real = analytics.coefficient_array

        def counting(exponent, spec):
            calls.append(exponent.batch)
            return real(exponent, spec)

        monkeypatch.setattr(analytics, "coefficient_array", counting)
        _tmsv_reference.cache_clear()
        analytics._heralding.cache_clear()
        run_sweep(SweepRequest(quantity="weighted_merit", preset="asym-pa-1",
                               lam_axis=Axis((0.5,)), tau_axis=parse_axis("0.01:0.99:101", "tau"),
                               phi_axis=Axis((0.01,))))
        assert calls == [(101,), (1,)]
        calls.clear()
        _tmsv_reference(0.6, 0.01)
        calls.clear()
        run_sweep(SweepRequest(quantity="merit", preset="sym-pc-2",
                               lam_axis=Axis((0.6,)), tau_axis=parse_axis("0.01:1.0:21", "tau"),
                               phi_axis=Axis((0.01,))))
        assert calls == [(1,)] * 21

    def test_sym_pc_2_row_memory(self):
        # One sym-pc-2 state per chunk keeps a heavy row's memory where it
        # was. The parent commit, which evaluated one point at a time, peaked
        # at 609,931 traced bytes on this row (Python 3.11, numpy 2.4).
        request = SweepRequest(quantity="merit", preset="sym-pc-2", lam_axis=Axis((0.5,)),
                               tau_axis=parse_axis("0.01:1.0:21", "tau"),
                               phi_axis=Axis((0.01,)))
        run_sweep(request)  # the plane rule and the reference are cached
        tracemalloc.start()
        try:
            run_sweep(request)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.10 * 609_931, peak
