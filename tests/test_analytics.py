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
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from engine_reference import herald_core, tmsv_sensitivity_mp, two_sided_numerator
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
    parity_aux,
    parity_form,
    probability_form,
    tmsv_spec,
    wigner_aux_form,
)
from ngtmsv import model, oracle, series, sweep
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
    num = herald_core(spec, parity_form(params, aux))
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


def _engine_calls(monkeypatch) -> list:
    """The list that records, from now on, (name, form shape) of every call
    analytics makes to an engine of :mod:`ngtmsv.series`: ``pair_blocks``
    takes the form, ``coefficient_array`` an exponent that holds it."""
    calls = []
    for name in ("pair_blocks", "coefficient_array"):
        def counting(arg, *args, name=name, real=getattr(analytics, name)):
            calls.append((name, getattr(arg, "quad", arg).shape))
            return real(arg, *args)

        monkeypatch.setattr(analytics, name, counting)
    return calls


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

    def test_pair_blocks_are_the_dense_array_by_degree(self):
        # the heralding fill of a batch against the dense engine on each
        # entry's exponent: every block entry within 1e-12 relative, and
        # every dense entry off the blocks (as many a's as b's) exactly zero
        paired, others = (0, 3, 4, 7), (1, 2, 5, 6)
        for spec in _SPECS:
            dspec = spec.derivative_spec()
            exps = list(itertools.product(*(range(dspec.orders[v] + 1) for v in paired)))
            specs = [NGOperationSpec(spec.m1, spec.m2, spec.n1, spec.n2, tau, tau)
                     for tau in (1e-6, 0.3, 1.0)]
            for lam in (0.0, 0.01, 0.5, 0.97):
                forms = wigner_aux_form(derive_params(lam, specs))
                blocks = analytics.pair_blocks(forms, paired, dspec.orders)
                for b, form in enumerate(forms):
                    dense = coefficient_array(GeneratingExponent(8, form), dspec)[0]
                    off = np.ones(dense.shape, dtype=bool)
                    for s, block in enumerate(blocks):
                        degree = [e for e in exps if sum(e) == s]
                        assert block.shape == (3, len(degree), len(degree)), (spec, s)
                        for (i, r), (j, c) in itertools.product(enumerate(degree), repeat=2):
                            u = [0] * 8
                            for v, e in zip(paired + others, r + c):
                                u[v] = e
                            want = dense[tuple(u)]
                            assert abs(block[b, i, j] - want) <= 1e-12 * abs(want), (
                                spec, lam, b, r, c)
                            off[tuple(u)] = False
                    assert not dense[off].any(), (spec, lam, b)

    def test_batch_of_one_holds_the_real_part_of_the_single_exponent(self):
        # the engine's complex arithmetic for one exponent has exactly zero
        # imaginary parts; the digest pins the bits of the real parts,
        # entries that no output reads. With every imaginary part zero, a
        # fused and an unfused complex multiply round them alike, so the
        # bits do not depend on the CPU
        digest = hashlib.sha256()
        for spec in _SPECS:
            dspec = spec.derivative_spec()
            for lam in (0.0, 0.01, 0.5, 0.97):
                form = wigner_aux_form(derive_params(lam, (spec,)))[0]
                alone = coefficient_array(GeneratingExponent(8, form), dspec)[0]
                assert not alone.imag.any(), (spec, lam)
                digest.update(alone.real.tobytes())
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

    @pytest.mark.parametrize("spec, at", [
        (operation_from_table("sym-pa", 1, 0.7), 0.6),
        (operation_from_table("asym-pc", 2, 0.4), 2.3),
        (operation_from_table("sym-pc", 1, 0.7), math.pi / 2 + 5e-10),  # a fringe top
        (tmsv_spec(), 0.3),
    ], ids=["sym-pa-1", "asym-pc-2", "sym-pc-1-top", "tmsv"])
    def test_dual_seed_scales_the_derivative(self, spec, at):
        # the seed is d(phi)/d(parameter), so it scales the derivative at
        # seed 1: exactly for a power of two, to rounding for another seed
        lam = 0.5
        params = derive_params(lam, spec)
        unit = (parity_expectation(lam, spec, Dual(at, 1.0)),
                parity_aux(params, Dual(at, 1.0)).norm)
        for seed in (2.0, 0.1):
            got = (parity_expectation(lam, spec, Dual(at, seed)),
                   parity_aux(params, Dual(at, seed)).norm)
            for g, u in zip(got, unit):
                assert g.value == u.value
                if seed == 2.0:
                    assert g.deriv == 2.0 * u.deriv, (seed, g, u)
                else:
                    assert abs(g.deriv - seed * u.deriv) <= 1e-15 * abs(seed * u.deriv), (
                        seed, g, u)

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
               "the terms it sums; at phi = 0.3 the quadrature reads a "
               "signal of 1.005 and raises ConsistencyError, where a "
               "50-digit evaluation gives 0.70504")
    def test_quadrature_where_the_core_is_lost_to_rounding(self):
        # a draw of the test above moved from phi = 1 to 0.3, where the
        # fault still shows, kept here while the fault stands
        self._check_against_engine(1e-14, NGOperationSpec(0, 1, 1, 1, 0.75, 0.5), 0.3)

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

    def test_fringe_top_series_digest(self):
        # Pins the second-order series of the quadrature to the last bit:
        # every point lies within _TOP_WINDOW of a fringe top of a state with
        # an even photon total, where the slope is read from the curvature
        rows = []
        for kind in _KINDS:
            for n in (1, 2):
                spec = operation_from_table(kind, n, 0.7)
                if spec.total_photons % 2:
                    continue
                for lam in (0.3, 0.6, 0.9):
                    for at in (math.pi / 2, math.pi / 2 + 5e-10, 3 * math.pi / 2):
                        assert abs(math.cos(at)) <= analytics._TOP_WINDOW
                        got = _outcome(parity_expectation, lam, spec, Dual(at, 1.0))
                        rows.append(repr(got if isinstance(got, type)
                                         else (got.value, got.deriv)) + "\n")
        assert len(rows) == 90
        digest = hashlib.sha256("".join(rows).encode()).hexdigest()
        assert digest == (
            "c01bb12b1cafb7ee48a30f0cb1375b5d3ddeb7c8ac68cd5a3cbca3a8785d0497")

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

    def test_b_coupling_rows_are_minus_conj_of_a_rows(self):
        # the quadrature builds a's side only and derives b's: each row of b
        # is -conj of its partner's row of a, bit for bit where the entry is
        # not zero, and by value at the structural zeros, whose sign differs
        for shape in _SHAPES:
            specs = _shape_row(shape, [0.3, 0.95])
            photons = (specs[0].m1, specs[0].m2, specs[0].n1, specs[0].n2)
            specs += [NGOperationSpec(*photons, tau1, tau2)
                      for tau1, tau2 in ((0.3, 0.8), (0.95, 0.5), (1.0, 0.6))]
            for lam in (0.0, 1e-14, 0.5, 0.999):
                coupling = model.wigner_coupling(derive_params(lam, specs))
                a = coupling[:, list(analytics._PAIRED)]
                b = coupling[:, list(analytics._OTHERS)]
                want = (-np.conj(a)).view(np.float64)
                got = b.view(np.float64)
                assert np.array_equal(got, want), (shape, lam)
                kept = want != 0.0
                assert np.array_equal(got.view(np.uint64)[kept],
                                      want.view(np.uint64)[kept]), (shape, lam)

    def test_one_sided_numerator_matches_two_sided_sums(self):
        # the numerator from a's side alone is the two-sided sums' to the
        # last bit, at series orders 0 to 2 on and off a fringe top
        batches = [[operation_from_table(kind, n, tau) for tau in (0.3, 0.8, 1.0)]
                   for kind, n in (("sym-pc", 2), ("asym-pa", 1), ("sym-ps", 1))]
        batches.append([NGOperationSpec(1, 2, 1, 2, 0.6, 0.8),
                        NGOperationSpec(1, 2, 1, 2, 0.3, 0.95)])
        for specs in batches:
            for lam in (1e-14, 0.5, 0.97):
                batch = analytics._herald(lam, tuple(specs))
                for phi in (0.3, 0.01 + math.pi / 2, math.pi / 2):
                    for order in (0, 1, 2):
                        got = analytics._parity_numerator(batch, phi, order,
                                                          list(batch.faults))
                        want = two_sided_numerator(batch, phi, order)
                        assert np.array_equal(got, want), (specs[0], lam, phi, order)


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
            "0157c886ac17eada58b6f2fa423d1dda80d0c65c3f56f8e710ddeb58a0d4ae8b")

    def test_high_order_moments_digest(self):
        # Pins every moment of total order 5 or 6 (the order-5 and order-6
        # tables) to the last bit on three states, as the digest above
        # pins orders <= 4.
        indices = [i for i in itertools.product(range(7), repeat=4)
                   if sum(i) in (5, 6)]
        rows = []
        for kind, n, lam, tau in (("asym-pc", 2, 0.6, 0.4), ("sym-pa", 1, 0.9, 0.95),
                                  ("sym-pc", 2, 0.3, 0.7)):
            spec = operation_from_table(kind, n, tau)
            for idx in indices:
                value = moment(lam, spec, idx, max_total=6)
                rows.append(f"{kind}-{n} {lam} {tau} {idx} {value!r}\n")
        assert len(rows) == 420
        digest = hashlib.sha256("".join(rows).encode()).hexdigest()
        assert digest == (
            "e09f57c502a8367066814666ed25760208dd752f044d8f977c33c33db1d660da")

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
        engine over every spec and the given lambdas at one phi, merit with
        the closed-form bare-TMSV reference: where both are values, the move
        is within the bound of :func:`_engine_sensitivity`. Returns the
        points whose delta_phi status changed, with both outcomes."""
        changes = []
        for spec in _SPECS:
            for lam in lams:
                ref = _outcome(_tmsv_reference, lam, phi)
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
                    # both sides subtract from the same reference; each
                    # difference rounds once
                    want_merit = ref - dphi
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
        # side of the stationary floor; a denser lambda grid than above.
        # The closed-form reference's slope is exactly 0 there, so merit is
        # stationary wherever delta_phi is not
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


class TestTmsvReference:
    """The closed-form bare-TMSV delta_phi that merit subtracts from."""

    # the points of the pinned merit values: the figures-of-merit digest,
    # the eval golden and the merit CSV goldens
    PINNED = ((0.3, 0.01), (0.6, 0.2), (0.9, 0.5), (0.5, 0.01), (0.6, 0.01))

    @pytest.mark.parametrize("lam", [1e-8, 0.01, 0.3, 0.9, 0.97, 0.999, 0.9999])
    def test_matches_fifty_digits(self, lam):
        for phi in (1e-9, 1e-3, 0.01, 0.3, 1, 2.5):
            want = _outcome(tmsv_sensitivity_mp, lam, phi)
            got = _outcome(_tmsv_reference, lam, phi)
            if isinstance(want, type) or isinstance(got, type):
                assert got is want, (lam, phi)
            else:
                assert abs(got - want) <= 1e-15 * want, (lam, phi)

    def test_pinned_references_match_fifty_digits(self):
        for lam, phi in self.PINNED:
            want = tmsv_sensitivity_mp(lam, phi)
            assert abs(_tmsv_reference(lam, phi) - want) <= 1e-15 * want, (lam, phi)

    def test_matches_the_state_path(self):
        # the same operating point as phase_sensitivity of the bare state,
        # whose 1 - f^2 loses up to 1e-12 relative at phi = 0.01
        for lam in (0.3, 0.6, 0.9, 0.97):
            for phi in (0.01, 0.3, 1, 2.5):
                want = phase_sensitivity(lam, tmsv_spec(), phi)
                assert _tmsv_reference(lam, phi) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("lam, phi", [(0.0, 0.3), (0.5, 0.0), (0.9999, 0.0),
                                          (0.0, 0.0), (1e-200, 1.0)])
    def test_stationary_before_any_division(self, lam, phi):
        # the slope is exactly 0 at phi = 0 and at lambda = 0, with the
        # state path's message
        with pytest.raises(StationaryPointError, match="vanishes at phi="):
            _tmsv_reference(lam, phi)

    @pytest.mark.parametrize("lam", [1.0, 1.5, -0.1, math.nan])
    def test_lambda_outside_its_range(self, lam):
        # merit reads the reference first, with the state's lambda check
        with pytest.raises(ParameterError, match=r"\[0, 1\)"):
            merit(lam, tmsv_spec(), 0.3)


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
        # tensordot it replaced, and the arithmetic is the same. The exponent
        # is summed left to right, as the kernel sums it, not by sum(): from
        # Python 3.12 that is compensated and rounds otherwise. Every preset
        # shape, mixed photon numbers and the bare TMSV; random points and
        # signed zeros, a far point, a PhaseSpacePoint, ints and float32.
        rng = np.random.default_rng(5)
        specs = [operation_from_table(kind, n, 0.4)
                 for kind in ("asym-ps", "asym-pa", "asym-pc", "sym-ps", "sym-pa", "sym-pc")
                 for n in (1, 2)]
        specs += [NGOperationSpec(1, 2, 1, 2, 0.4, 0.4), tmsv_spec()]
        special = [(0.0, -0.0, 0.0, -0.0), (-0.0, -0.0, -0.0, -0.0), (1e200, 0.0, 0.0, 0.0),
                   PhaseSpacePoint(0.1, -0.7, 0.3, 1.2), (1, -2, 0, 1),
                   tuple(np.float32(v) for v in (0.3, -1.1, 0.7, 0.05))]
        for spec in specs:
            kernel = wigner_polynomial(0.6, spec)
            points = [tuple(rng.uniform(-1.5, 1.5, size=4)) for _ in range(5)] + special
            for point in points:
                pt = tuple(map(float, point.as_tuple() if isinstance(point, PhaseSpacePoint)
                               else point))
                expo = 0.0
                for i in range(4):
                    for j in range(4):
                        expo = expo + kernel.quad[i][j] * pt[i] * pt[j]
                want = 0.0
                if math.exp(expo) > 0.0:  # else the kernel's value is 0
                    num = kernel.coeffs
                    for ell in kernel.coupling @ pt:
                        powers = np.ones(num.shape[0], dtype=np.complex128)
                        for j in range(1, len(powers)):
                            powers[j] = powers[j - 1] * ell / j
                        num = np.tensordot(powers, num, axes=1)
                    want = kernel.scale * complex(num).real * math.exp(expo)
                assert kernel(point) == want, (spec, point)

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
        # must never change an output. The merit references are checked at
        # 50 digits in TestTmsvReference.
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
            "0164081ab70222e893932550cd7f007e36766a406e8ac12c3b1fbcb04a6a2775")

    def test_report_computes_heralding_core_once(self, monkeypatch):
        # probability, parity, sensitivity and the QFI share one heralding
        # array, and a second report at the same state reuses it
        lam, phi = 0.5, 0.2
        spec = operation_from_table("sym-pc", 1, 0.6)
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

    def test_phi_scan_keeps_its_state(self, monkeypatch):
        # the bare-TMSV reference is a closed form, not a state: a per-point
        # scan over phi fills the heralding blocks once
        spec = operation_from_table("sym-pc", 2, 0.7)
        calls = _engine_calls(monkeypatch)
        analytics._heralding.cache_clear()
        for phi in np.linspace(0.01, 1.5, 20):
            weighted_merit(0.5, spec, float(phi))
        assert calls == [("pair_blocks", (1, 8, 8))]

    def test_merit_is_closed_form_minus_sensitivity(self):
        spec = operation_from_table("asym-pa", 1, 0.6)
        for lam, phi in ((0.5, 0.2), (0.5, 0.3), (0.6, 0.2), (0.01, 0.01), (0.97, 2.5)):
            want = _tmsv_reference(lam, phi) - phase_sensitivity(lam, spec, phi)
            assert merit(lam, spec, phi) == want
            assert weighted_merit(lam, spec, phi) == (
                success_probability(lam, spec) * want)

    def test_stationary_reference_raises_every_call(self):
        # at phi = 0 the reference's slope is 0: merit and weighted merit
        # raise its stationary error on every call
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
        # order <= 2 and the QFI: one fill of the 8-variable heralding
        # blocks for a batch of one and one 4-variable moment-source
        # array, and no other engine run
        assert not hasattr(analytics, "mixed_partial_at_zero")
        calls = _engine_calls(monkeypatch)
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
        assert calls == [("pair_blocks", (1, 8, 8)), ("coefficient_array", (4, 4))]

    def test_probe_derives_forms_once(self, monkeypatch):
        # a state's kernel and its moment tables read one Wigner coupling
        # and one phase-space form, derived once per state
        calls = []
        for name in ("wigner_coupling", "phase_space_form"):
            def counting(params, name=name, real=getattr(model, name)):
                calls.append(name)
                return real(params)

            monkeypatch.setattr(model, name, counting)
            monkeypatch.setattr(analytics, name, counting)
        analytics._heralding.cache_clear()
        lam, spec = 0.45, operation_from_table("sym-pc", 1, 0.35)
        wigner_polynomial(lam, spec)((0.1, 0.2, -0.3, 0.4))
        for idx in itertools.product(range(3), repeat=4):
            if sum(idx) <= 2:
                moment(lam, spec, idx)
        qfi(lam, spec)
        assert sorted(calls) == ["phase_space_form", "wigner_coupling"]

    def test_shape_plans_are_shared_and_read_only(self):
        # every lru_cache of the package is bounded (the Fock oracle, a test
        # reference, aside). The per-shape plans depend only on the photon
        # numbers: after a sym-pc-1 probe and a sym-pc-2 merit row, a second
        # state of each shape adds no cache miss (the kept state is keyed by
        # state). The plans' arrays are shared, so none can be written: each
        # cached value is read on the miss that stores it, with the caches
        # empty
        caches = {name: fn for module in (series, model, analytics, sweep)
                  for name, fn in vars(module).items() if hasattr(fn, "cache_info")}
        assert {"_levels", "_pair_plan", "_dense_index", "_circle_rule",
                "_power_plan", "_moment_plan", "_heralding"} <= set(caches)
        assert all(fn.cache_parameters()["maxsize"] for fn in caches.values())
        indices = [i for i in itertools.product(range(3), repeat=4) if sum(i) <= 2]

        def warm(lam, tau):
            spec = operation_from_table("sym-pc", 1, tau)
            wigner(lam, spec, (0.3, -0.2, 0.1, 0.4))
            for idx in indices:
                moment(lam, spec, idx)
            qfi(lam, spec)
            phase_sensitivity(lam, spec, 0.3)
            run_sweep(SweepRequest(quantity="merit", preset="sym-pc-2", lam_axis=Axis((lam,)),
                                   tau_axis=parse_axis("0.01:1.0:21", "tau"),
                                   phi_axis=Axis((0.01,))))

        codes = {fn.__wrapped__.__code__ for fn in caches.values()}
        stored = []

        def spy(frame, event, arg):
            if event == "return" and frame.f_code in codes:
                stored.append(arg)

        for fn in caches.values():
            fn.cache_clear()
        before = sys.getprofile()
        sys.setprofile(spy)
        try:
            warm(0.45, 0.35)
        finally:
            sys.setprofile(before)
        plans = {name: fn for name, fn in caches.items() if name != "_heralding"}
        assert all(fn.cache_info().currsize for fn in plans.values())
        misses = {name: fn.cache_info().misses for name, fn in plans.items()}
        warm(0.8, 0.6)
        assert {name: fn.cache_info().misses for name, fn in plans.items()} == misses

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)

        found = [a for value in stored for a in arrays(value)]
        assert found and not any(a.flags.writeable for a in found)

    def test_sweep_queries_run_heralding_engine_once(self, monkeypatch):
        # merit, weighted merit and delta_phi read the parity signal and its
        # slope from the blocks of a batch of one; the report adds only the
        # QFI's moment-source array
        lam, phi = 0.45, 0.3
        spec = operation_from_table("sym-pc", 1, 0.35)
        calls = _engine_calls(monkeypatch)
        analytics._heralding.cache_clear()
        merit(lam, spec, phi)
        weighted_merit(lam, spec, phi)
        phase_sensitivity(lam, spec, phi)
        assert calls == [("pair_blocks", (1, 8, 8))]
        sensitivity_report(lam, spec, phi)
        assert calls == [("pair_blocks", (1, 8, 8)), ("coefficient_array", (4, 4))]


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
        # numpy keeps a float32's precision beside a Python float (NEP 50),
        # so such a lambda, tau or phi would compute in single precision
        lambda: success_probability(np.float32(0.5), _ASYM_PA),
        lambda: qfi(np.float16(0.5), _ASYM_PA),
        lambda: derive_params(np.float32(0.5), _ASYM_PA),
        lambda: merit(0.5, _ASYM_PA, np.float32(0.01)),
        lambda: phase_sensitivity(0.5, _ASYM_PA, np.float16(0.01)),
        lambda: parity_expectation(0.5, _ASYM_PA, Dual(np.float32(0.3), 1.0)),
        lambda: parity_expectation(0.5, _ASYM_PA, Dual(0.3, np.float32(1.0))),
        lambda: NGOperationSpec(0, 1, 0, 0, 1.0, np.float32(0.5)),
        lambda: operation_from_table("asym-pa", 1, np.float16(0.5)),
        lambda: analytics.evaluate_chunk("probability", np.float32(0.5), [_ASYM_PA], [0.01]),
        lambda: analytics.evaluate_chunk("merit", 0.5, [_ASYM_PA], [np.float32(0.01)]),
    ], ids=["complex-lambda", "str-tau-table", "str-tau-spec", "str-phi-merit",
            "none-phi", "array-lambda", "bool-photons-spec", "bool-photons-table",
            "bool-tau-spec", "bool-tau-table", "bool-lambda", "bool-phi", "bool-point",
            "bool-phase-space-point", "bool-moment-index", "int-kind",
            "float32-lambda", "float16-lambda-qfi", "float32-lambda-params",
            "float32-phi-merit", "float16-phi", "float32-dual-value", "float32-dual-seed",
            "float32-tau-spec", "float16-tau-table", "float32-lambda-chunk",
            "float32-phi-chunk"])
    def test_non_real_parameters_raise_parameter_error(self, call):
        with pytest.raises(ParameterError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: success_probability(0.5, [0, 0, 0, 1]),
        lambda: success_probability(0.5, "x"),
        lambda: merit(0.5, None, 0.3),
        lambda: sensitivity_report(0.5, "x", 0.3),
        lambda: moment(0.5, _ASYM_PA, 5),
        lambda: moment(0.5, _ASYM_PA, None),
        lambda: moment(0.5, _ASYM_PA, (1, 0, 0, 0), max_total="4"),
        lambda: moment(0.5, _ASYM_PA, (1, 0, 0, 0), max_total=True),
        lambda: analytics.evaluate_chunk("merit", 0.5, None, [0.1]),
        lambda: analytics.evaluate_chunk("merit", 0.5, 3, [0.1]),
        lambda: analytics.evaluate_chunk("merit", 0.5, [_ASYM_PA], None),
        lambda: analytics.evaluate_chunk("qfi", 0.5, [_ASYM_PA], None),
        lambda: analytics.evaluate_chunk("qfi", 0.5, [_ASYM_PA], ["x"]),
        lambda: analytics.evaluate_chunk("merit", 0.5, ["x"], [0.1]),
    ], ids=["list-spec", "str-spec", "none-spec-merit", "str-spec-report", "int-moment-index",
            "none-moment-index", "str-max-total", "bool-max-total", "none-chunk-specs",
            "int-chunk-specs", "none-chunk-phis", "none-chunk-phis-state", "str-chunk-phi-state",
            "str-chunk-spec"])
    def test_malformed_arguments_raise_parameter_error(self, call):
        # each is checked before it becomes a cache key or reaches the forms
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
        # a point's coordinates are converted by float(), exactly
        point = tuple(np.float32(v) for v in (0.1, -0.2, 0.3, 0.4))
        assert wigner(0.5, spec, point) == wigner(0.5, spec, tuple(map(float, point)))


class TestResidueGuard:
    def test_real_extraction(self):
        assert _real(3.0 + 1e-14j, "x") == 3.0
        with pytest.raises(ConsistencyError):
            _real(1.0 + 1e-3j, "x")


def _sym_pc_2_row(n: int) -> list:
    """The sym-pc-2 operations of a row of ``n`` tau values over [0.01, 1]."""
    return [operation_from_table("sym-pc", 2, tau) for tau in np.linspace(0.01, 1.0, n).tolist()]


_SHAPES = [f"{kind}-{n}" for kind in _KINDS for n in (1, 2)] + ["pc-1-2", "tmsv"]


def _shape_row(shape: str, taus: list) -> list:
    """The operations of a row over ``taus`` of a shape of ``_SHAPES``: a
    preset, ``pc-1-2`` (photons (1, 2, 1, 2) at tau1 = tau2 = tau) or
    ``tmsv``."""
    if shape == "tmsv":
        return [tmsv_spec()] * len(taus)
    if shape == "pc-1-2":
        return [NGOperationSpec(1, 2, 1, 2, tau, tau) for tau in taus]
    kind, n = shape.rsplit("-", 1)
    return [operation_from_table(kind, int(n), tau) for tau in taus]


# Traced peaks in bytes of evaluate_chunk over a 21-tau row at lambda = 0.5
# per shape, for parity, sensitivity, merit and weighted_merit, each at
# phi = 0.01 and then phi = 0, at the commit whose quadrature built b's side
# of its own (Python 3.11, numpy 2.4). Merit and weighted merit at phi = 0
# read the stationary reference and run no quadrature.
_ROW_PEAKS = {
    "asym-ps-1": (27_480, 27_464, 33_392, 33_344, 33_312, 27_392, 33_248, 27_352),
    "asym-ps-2": (29_634, 29_504, 40_087, 50_896, 40_087, 27_336, 40_144, 27_336),
    "asym-pa-1": (27_336, 27_336, 33_079, 33_079, 33_079, 27_336, 33_136, 27_336),
    "asym-pa-2": (29_545, 29_488, 40_201, 50_896, 40_144, 27_336, 40_144, 27_336),
    "asym-pc-1": (39_158, 39_101, 57_365, 75_566, 57_365, 27_336, 57_365, 27_336),
    "asym-pc-2": (60_885, 60_885, 97_629, 134_253, 97_629, 28_168, 97_629, 28_168),
    "sym-ps-1": (39_360, 39_303, 57_567, 75_711, 57_567, 27_336, 57_624, 27_336),
    "sym-ps-2": (61_087, 61_087, 97_831, 134_455, 97_831, 28_168, 97_831, 28_168),
    "sym-pa-1": (39_303, 39_303, 57_567, 75_711, 57_567, 27_336, 57_624, 27_336),
    "sym-pa-2": (61_087, 61_087, 97_888, 134_455, 97_831, 28_168, 97_831, 28_168),
    "sym-pc-1": (107_789, 107_789, 177_575, 247_013, 177_461, 53_368, 177_461, 53_368),
    "sym-pc-2": (528_274, 528_103, 548_736, 539_894, 548_565, 386_776, 548_679, 386_776),
    "pc-1-2": (213_229, 213_343, 355_477, 497_605, 355_591, 118_024, 355_534, 118_024),
    "tmsv": (27_336, 27_336, 27_336, 27_336, 27_336, 27_336, 27_336, 27_336),
}


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
        ("sensitivity", (3, 3, 0, 0)), ("weighted_merit", (0, 0, 3, 3))])
    def test_first_error_in_grid_order(self, quantity, photons):
        # lambda = 0.9999 loses the parity signal's last digits: the state's
        # signal exceeds 1 in magnitude at some points, which is not a status
        request = SweepRequest(quantity=quantity, photons=photons,
                               lam_axis=Axis((0.5, 0.9999)),
                               tau_axis=Axis((0.5, 0.999999, 1.0)),
                               phi_axis=Axis((0.3, 0.0, 1e-9)))
        with pytest.raises(ConsistencyError) as want:
            _pointwise(request)
        with pytest.raises(ConsistencyError) as got:
            run_sweep(request)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("quantity", ["merit", "weighted_merit"])
    def test_fringe_top_near_lambda_one_is_a_status(self, quantity):
        # at lambda = 0.9999, phi = 0 the states' own signals exceed 1 in
        # magnitude, but the reference is stationary, and merit reads it
        # first, weighted merit right after the heralding
        for preset in ("tmsv", "asym-pa-1", "sym-pc-2"):
            request = SweepRequest(quantity=quantity, preset=preset,
                                   lam_axis=Axis((0.9999,)), tau_axis=Axis((0.5, 1.0)),
                                   phi_axis=Axis((0.0,)))
            records = run_sweep(request)
            assert {rec.status for rec in records} == {"stationary"}, preset
            assert [(repr(r.value), r.status) for r in records] == _pointwise(request)

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

    def test_phase_path_builds_no_dual(self, monkeypatch):
        # a sweep asks _parity for its slope by a flag: no Dual on its path,
        # also where the slope comes from the curvature at a fringe top
        chunks = [[operation_from_table(kind, 1, tau) for tau in (0.3, 0.9)]
                  for kind in ("asym-pc", "sym-pc")]
        phis = [0.0, 0.01, 0.7]
        quantities = ("sensitivity", "merit", "weighted_merit")
        want = [analytics.evaluate_chunk(q, 0.5, specs, phis)
                for q in quantities for specs in chunks]

        class NoDual:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a Dual was built on the sweep's phase path")

        monkeypatch.setattr(analytics, "Dual", NoDual)
        monkeypatch.setattr(model, "Dual", NoDual)
        got = [analytics.evaluate_chunk(q, 0.5, specs, phis)
               for q in quantities for specs in chunks]
        bits = [[repr(v) if type(v) is float else type(v) for v in row] for row in got]
        assert bits == [[repr(v) if type(v) is float else type(v) for v in row] for row in want]
        assert {type(v) for row in got for v in row} == {float, StationaryPointError}

    def test_one_engine_call_per_chunk(self, monkeypatch):
        # a 101-point asym-pa-1 row is one fill, and the bare-TMSV reference
        # is a closed form; so is a 21-point sym-pc-2 row, whose quadrature
        # runs over slices of the fill. A 101-point sym-pc-2 row takes the
        # fewest fills that fit the budget, of as even a size as ceil allows
        calls = _engine_calls(monkeypatch)
        analytics._heralding.cache_clear()
        run_sweep(SweepRequest(quantity="weighted_merit", preset="asym-pa-1",
                               lam_axis=Axis((0.5,)), tau_axis=parse_axis("0.01:0.99:101", "tau"),
                               phi_axis=Axis((0.01,))))
        assert calls == [("pair_blocks", (101, 8, 8))]
        calls.clear()
        run_sweep(SweepRequest(quantity="merit", preset="sym-pc-2",
                               lam_axis=Axis((0.6,)), tau_axis=parse_axis("0.01:1.0:21", "tau"),
                               phi_axis=Axis((0.01,))))
        assert calls == [("pair_blocks", (21, 8, 8))]
        calls.clear()
        analytics.evaluate_chunk("merit", 0.5, _sym_pc_2_row(101), [0.01])
        assert calls == [("pair_blocks", (n, 8, 8)) for n in (26, 26, 26, 23)]

    def test_checked_request_is_not_checked_again(self, monkeypatch):
        # a sweep hands what its request checked to evaluate_checked, one
        # call per lambda-row through a public name (which the bench's layer
        # tracing wraps): no spec is checked again on any lambda-row, the
        # Wigner point is converted once per request, and each fill derives
        # the heralding orders and scale once (plus once to size the fills)
        counts = {"_as_spec": 0, "_as_point": 0, "derivative_spec": 0, "fills": 0, "rows": 0}

        def counted(key, real):
            def call(*args):
                counts[key] += 1
                return real(*args)
            return call

        monkeypatch.setattr(analytics, "_as_spec", counted("_as_spec", analytics._as_spec))
        monkeypatch.setattr(analytics, "_as_point", counted("_as_point", analytics._as_point))
        monkeypatch.setattr(analytics, "_herald", counted("fills", analytics._herald))
        monkeypatch.setattr(analytics, "evaluate_checked", counted(
            "rows", analytics.evaluate_checked))
        monkeypatch.setattr(NGOperationSpec, "derivative_spec", counted(
            "derivative_spec", NGOperationSpec.derivative_spec))
        requests = [
            SweepRequest(quantity="weighted_merit", preset="asym-pa-1",
                         lam_axis=Axis((0.3, 0.5, 0.7)),
                         tau_axis=parse_axis("0.01:0.99:101", "tau"), phi_axis=Axis((0.01,))),
            SweepRequest(quantity="merit", preset="sym-pc-2", lam_axis=Axis((0.6,)),
                         tau_axis=parse_axis("0.01:1.0:101", "tau"), phi_axis=Axis((0.01,))),
            SweepRequest(quantity="sensitivity", preset="sym-pc-1", lam_axis=Axis((0.5,)),
                         tau_axis=Axis((0.4, 0.9)), phi_axis=Axis((0.0, 0.3))),
            SweepRequest(quantity="wigner", preset="asym-ps-1", lam_axis=Axis((0.2, 0.6)),
                         tau_axis=Axis((0.5, 0.8)), point=(0.3, -0.2, 0.1, 0.4)),
        ]
        for request in requests:
            for key in counts:
                counts[key] = 0
            run_sweep(request)
            assert counts["_as_spec"] == 0, request
            assert counts["rows"] == len(request.lam_axis.values), request
            assert counts["_as_point"] == (request.quantity == "wigner"), request
            assert counts["fills"] >= len(request.lam_axis.values), request
            assert counts["derivative_spec"] <= 2 * counts["fills"], (request, counts)
        assert "evaluate_checked" in analytics.__all__

    def test_sym_pc_2_row_memory(self):
        # A heavy row's memory stays where it was at every series order of
        # the quadrature: merit at phi = 0.01 reads order 1, sensitivity at
        # phi = 0 (a fringe top) order 2 and parity order 0. The commit that
        # evaluated one point at a time peaked at 609,931 traced bytes on the
        # merit row (Python 3.11, numpy 2.4).
        for quantity, phi in (("merit", 0.01), ("sensitivity", 0.0), ("parity", 0.3)):
            request = SweepRequest(quantity=quantity, preset="sym-pc-2",
                                   lam_axis=Axis((0.5,)),
                                   tau_axis=parse_axis("0.01:1.0:21", "tau"),
                                   phi_axis=Axis((phi,)))
            run_sweep(request)  # the circle rule is cached
            tracemalloc.start()
            try:
                run_sweep(request)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.10 * 609_931, (quantity, peak)
        # a row handed to evaluate_chunk whole is cut into fills under the
        # same budget, each released before the next is made, also when its
        # outcomes are errors (at phi = 0 the reference is stationary)
        for n, phi in ((62, 0.01), (101, 0.01), (202, 0.01), (101, 0.0)):
            specs = _sym_pc_2_row(n)
            tracemalloc.start()
            try:
                analytics.evaluate_chunk("merit", 0.5, specs, [phi])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.10 * 609_931, (n, phi, peak)

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_row_memory_of_every_shape(self, shape):
        # evaluate_chunk over a 21-tau row of each photon shape stays within
        # 1.10x its traced peak before the quadrature derived b's side from
        # a's. qfi and qcrb are left out: their moment tables are built one
        # state at a time, outside the fills' byte budget.
        specs = _shape_row(shape, np.linspace(0.01, 1.0, 21).tolist())
        cases = [(q, phi) for q in ("parity", "sensitivity", "merit", "weighted_merit")
                 for phi in (0.01, 0.0)]
        for (quantity, phi), before in zip(cases, _ROW_PEAKS[shape]):
            analytics.evaluate_chunk(quantity, 0.5, specs, [phi])  # plans are cached
            tracemalloc.start()
            try:
                analytics.evaluate_chunk(quantity, 0.5, specs, [phi])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.10 * before, (quantity, phi, peak, before)

    @pytest.mark.parametrize("preset, tau", [
        ("sym-pc-2", "0.01:1.0:21"), ("sym-pc-2", "0.01:1.0:62"),
        ("asym-pa-1", "0.01:0.99:101")])
    def test_whole_rows_match_per_point_functions(self, preset, tau):
        # a row is one fill, or two for 62 sym-pc-2 points, and a sym-pc-2
        # fill's quadrature runs in slices of it, at series orders 0 to 2
        # (phi = 0 and 5e-10 lie at a fringe top of the signal's phi + pi/2)
        for quantity in ("parity", "sensitivity", "merit"):
            request = SweepRequest(quantity=quantity, preset=preset, lam_axis=Axis((0.6,)),
                                   tau_axis=parse_axis(tau, "tau"),
                                   phi_axis=Axis((0.0, 5e-10, 0.01)))
            got = [(repr(rec.value), rec.status) for rec in run_sweep(request)]
            assert got == _pointwise(request), quantity
