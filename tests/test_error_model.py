import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbus.error_model import (
    ErrorModelParams,
    _phase_errors,
    HBAR,
    UEV,
    V_BRACKET,
    optimal_velocity,
    phase_error,
    phase_error_terms,
)

from oracles import d_phase_error_dv

# Golden constants for v = 10 m/s, L_s = 3 um with default parameters,
# evaluated term by term at 60 significant digits before the main build.
GOLDEN_T1 = 1.4999999999999997e-05
GOLDEN_T2 = 1.0e-05
GOLDEN_T3 = 7.4318794675335346e-05
GOLDEN_T4 = 7.662937918862733e-10
GOLDEN_SUM = 9.931956096912723e-05

# Reference minimizers from a 60-digit dense-scan + refine oracle.
GOLDEN_VSTAR = {
    1e-6: 5.70098013515,
    3e-6: 7.06665142845,
    10e-6: 9.2591929253,
    30e-6: 11.9766431416,
}


@pytest.fixture(scope="module")
def p():
    return ErrorModelParams()


def test_golden_terms(p):
    terms = phase_error_terms(10.0, 3e-6, p)
    for got, want in zip(terms, (GOLDEN_T1, GOLDEN_T2, GOLDEN_T3, GOLDEN_T4)):
        assert got == pytest.approx(want, rel=1e-12)
    assert phase_error(10.0, 3e-6, p) == pytest.approx(GOLDEN_SUM, rel=1e-12)


def test_zero_distance(p):
    t1, t2, t3, t4 = phase_error_terms(10.0, 0.0, p)
    assert t1 == 0.0 and t4 == 0.0
    assert t2 > 0.0 and t3 > 0.0
    assert phase_error(10.0, 0.0, p) == t2 + t3


def test_distance_linearity_exact(p):
    a = phase_error_terms(10.0, 3e-6, p)
    b = phase_error_terms(10.0, 6e-6, p)
    assert b[0] == 2.0 * a[0]
    assert b[3] == 2.0 * a[3]
    assert b[1] == a[1] and b[2] == a[2]


def test_monotone_in_distance(p):
    assert phase_error(10.0, 5e-6, p) > phase_error(10.0, 3e-6, p)


def test_rejects_bad_inputs(p):
    with pytest.raises(ValueError):
        phase_error_terms(0.0, 1e-6, p)
    with pytest.raises(ValueError):
        phase_error_terms(-1.0, 1e-6, p)
    with pytest.raises(ValueError):
        phase_error_terms(1.0, -1e-6, p)
    with pytest.raises(ValueError):
        d_phase_error_dv(0.0, 1e-6, p)


def test_param_validation():
    with pytest.raises(ValueError):
        ErrorModelParams(l_c=0.0)
    with pytest.raises(ValueError):
        ErrorModelParams(t2_star=float("inf"))


def test_defaults_match_table_units(p):
    cfg = p.to_config()
    assert cfg == {
        "l_c_nm": pytest.approx(100.0),
        "t2_star_us": pytest.approx(20.0),
        "l_dot_nm": pytest.approx(20.0),
        "e_vs0_uev": pytest.approx(100.0),
        "d_bar_nm": pytest.approx(30.0),
        "a_x_pi_per_nm": pytest.approx(0.05),
    }
    again = ErrorModelParams.from_config(json.loads(json.dumps(cfg)))
    assert again.l_c == pytest.approx(p.l_c, rel=1e-15)
    assert again.e_vs0 == pytest.approx(p.e_vs0, rel=1e-15)


@pytest.mark.parametrize(
    "key", ["l_c_nm", "t2_star_us", "l_dot_nm", "e_vs0_uev", "d_bar_nm", "a_x_pi_per_nm"]
)
@pytest.mark.parametrize("value", [True, "100", None, [1]])
def test_from_config_rejects_non_numbers(key, value):
    # float() once read true as 1.0 and "100" as 100.0
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        ErrorModelParams.from_config({key: value})


def test_keys_left_out_keep_their_defaults():
    # from_config once re-derived each missing key from a second copy of the
    # defaults: 100.0 * 1e-9 is 1.0000000000000001e-07, not l_c = 100e-9
    assert ErrorModelParams.from_config({}) == ErrorModelParams()
    assert ErrorModelParams.from_config({"l_dot_nm": 25.0}) == ErrorModelParams(l_dot=25.0 * 1e-9)
    assert ErrorModelParams.from_config({"l_c_nm": 100.0}).l_c == 1.0000000000000001e-07


def test_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="t2_us"):
        ErrorModelParams.from_config({"t2_us": 10.0})


class TestDerivative:
    @pytest.mark.parametrize("v", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("l_s", [1e-6, 3e-6, 10e-6])
    def test_matches_central_differences(self, p, v, l_s):
        h = 1e-6 * v
        fd = (phase_error(v + h, l_s, p) - phase_error(v - h, l_s, p)) / (2 * h)
        an = d_phase_error_dv(v, l_s, p)
        assert an == pytest.approx(fd, rel=1e-6)

    def test_asymptotic_signs(self, p):
        # slow: the 1/v and 1/v^2 terms dominate and push the optimum up
        assert d_phase_error_dv(0.01, 0.0, p) < 0.0
        # fast: the v^2 valley term dominates
        assert d_phase_error_dv(1000.0, 0.0, p) > 0.0

    def test_nearly_zero_at_optimum(self, p):
        for l_s in (1e-6, 3e-6, 10e-6, 30e-6):
            v_star = optimal_velocity(l_s, p)
            slope = d_phase_error_dv(v_star, l_s, p)
            scale = phase_error(v_star, l_s, p) / v_star
            assert abs(slope) < 1e-3 * scale


class TestOptimalVelocity:
    def test_matches_reference_minimizers(self, p):
        for l_s, ref in GOLDEN_VSTAR.items():
            assert optimal_velocity(l_s, p) == pytest.approx(ref, rel=1e-4)

    def test_beats_dense_grid(self, p):
        # 1e5-point module-level check; the full 1e6-point oracle runs in
        # the acceptance suite
        grid = np.geomspace(*V_BRACKET, 100_000)
        for l_s in (1e-6, 10e-6):
            best_grid = _vectorized_delta_c(grid, l_s, p).min()
            v_star = optimal_velocity(l_s, p)
            assert phase_error(v_star, l_s, p) <= best_grid * (1 + 1e-3)

    def test_boundary_minimizer_returned_exactly(self):
        # with a_x = 1/m and d_bar = 1 m, delta-C falls over the whole
        # bracket for 3 um, so the bracket's upper edge wins
        p = ErrorModelParams(a_x=1.0, d_bar=1.0)
        assert optimal_velocity(3e-6, p) == V_BRACKET[1] == 1000.0

    def test_monotone_in_distance(self, p):
        stars = [optimal_velocity(l_s, p) for l_s in (1e-6, 3e-6, 10e-6, 30e-6)]
        assert stars == sorted(stars)

    def test_deterministic(self, p):
        assert optimal_velocity(7e-6, p) == optimal_velocity(7e-6, p)


def test_terms_finite_and_nonnegative_over_ranges(p):
    for v in np.geomspace(1e-3, 1e4, 25):
        for l_s in [0.0, *np.geomspace(1e-9, 1e-3, 19)]:
            terms = phase_error_terms(float(v), float(l_s), p)
            for t in terms:
                assert t >= 0.0 and math.isfinite(t)


def test_unit_system_invariance(p):
    # re-evaluate with every quantity expressed in um / us / J instead of SI
    def dual_path(v, l_s):
        um, us = 1e6, 1e6
        l_c = p.l_c * um
        t2 = p.t2_star * us
        l_dot = p.l_dot * um
        d_bar = p.d_bar * um
        a_x = p.a_x / um
        hbar_jus = HBAR * us
        v_umus = v * um / us  # numerically equal to m/s
        ls_um = l_s * um
        t1 = 2 * l_c * ls_um / (v_umus * t2) ** 2
        t2_term = 1e-4 / v  # v read in m/s by definition
        t3 = 0.01 * 0.5 * (hbar_jus * a_x * v_umus) ** 2 / p.e_vs0**2 * math.exp(
            (a_x * l_dot) ** 2 / 2
        )
        t4 = 0.01 * (ls_um / d_bar) * math.exp(
            -0.03 * math.log(10.0) * p.e_vs0 * l_dot / (hbar_jus * v_umus)
        )
        return t1 + t2_term + t3 + t4

    for v in (0.5, 10.0, 200.0):
        for l_s in (0.0, 1e-6, 30e-6):
            assert phase_error(v, l_s, p) == pytest.approx(dual_path(v, l_s), rel=1e-12)


def test_constants():
    assert HBAR == 1.054571817e-34
    assert UEV == 1.602176634e-25


def _vectorized_delta_c(v, l_s, p):
    """Independent numpy-path evaluation of the four-term model."""
    t1 = 2.0 * p.l_c * l_s / (v * p.t2_star) ** 2
    t2 = 1e-4 / v
    t3 = 0.01 * 0.5 * (HBAR * p.a_x * v) ** 2 / p.e_vs0**2 * np.exp(
        (p.a_x * p.l_dot) ** 2 / 2.0
    )
    t4 = 0.01 * (l_s / p.d_bar) * np.exp(
        -0.03 * np.log(10.0) * p.e_vs0 * p.l_dot / (HBAR * v)
    )
    return t1 + t2 + t3 + t4


def _scalar_loop(velocity, dist, p):
    """The reference: ``phase_error`` of every row, one scalar call each."""
    return np.array([phase_error(v, d, p) for v, d in zip(velocity.tolist(), dist.tolist())])


def _outcome(fn, *args):
    try:
        return fn(*args).view(np.int64).tolist()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), exc.args


_RAISING_VELOCITIES = [0.0, -0.0, -1.0, math.nan, 1e-160, 1e160]


class TestPhaseErrorsByVelocity:
    """``_phase_errors`` groups rows by velocity and evaluates each group as
    an array: every bit, and the first exception, as the scalar loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        velocities=st.lists(st.floats(0.01, 1000.0), min_size=1, max_size=6),
        picks=st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 1e-3)), max_size=60),
    )
    def test_bits_match_the_scalar_loop(self, p, velocities, picks):
        velocity = np.array([velocities[i % len(velocities)] for i, _ in picks], dtype=np.float64)
        dist = np.array([d for _, d in picks], dtype=np.float64)
        assert _outcome(_phase_errors, velocity, dist, p) == _outcome(_scalar_loop, velocity, dist, p)

    def test_extreme_parameters_match_the_scalar_loop(self):
        # terms that overflow to inf or give inf * 0 = nan in Python floats
        # do so silently in the array path too, without a RuntimeWarning
        velocity = np.array([0.01, 1000.0, 0.01, 5.0, 1000.0])
        dist = np.array([1e-6, 1e300, 1e308, 0.0, 1e-6])
        for p in (ErrorModelParams(d_bar=1e-300), ErrorModelParams(l_c=1e300), ErrorModelParams(d_bar=5e-324)):
            assert _outcome(_phase_errors, velocity, dist, p) == _outcome(_scalar_loop, velocity, dist, p)

    @pytest.mark.parametrize("bad", _RAISING_VELOCITIES)
    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_first_failing_velocity_raises_as_the_scalar_loop(self, p, bad, at):
        velocity = np.array([10.0, 3.0, 10.0, 7.0, 3.0, 10.0, 7.0, 3.0])
        velocity[at] = bad
        velocity[-1 if at != 7 else 0] = 1e-160 if bad != 1e-160 else 1e160
        dist = np.arange(1, 9) * 1e-6
        got, want = _outcome(_phase_errors, velocity, dist, p), _outcome(_scalar_loop, velocity, dist, p)
        assert want[0] in (ValueError, ZeroDivisionError, OverflowError)
        assert got == want

    def test_array_distances_rejected_when_negative(self, p):
        with pytest.raises(ValueError, match="-2e-06"):
            phase_error(10.0, np.array([1e-6, -2e-6, -3e-6]), p)

    def test_array_distances_match_scalar_terms(self, p):
        dist = np.array([0.0, 1e-6, 3e-6, 1e-3])
        terms = phase_error_terms(10.0, dist, p)
        for i, d in enumerate(dist.tolist()):
            assert [np.float64(t if np.ndim(t) == 0 else t[i]) for t in terms] == list(phase_error_terms(10.0, d, p))
