"""Conveyor-belt shuttling dephasing model and velocity optimization.

The phase error added to a qubit shuttled a distance ``L_s`` at velocity
``v`` is the sum of four contributions:

    T1 = 2 * l_c * L_s / (v * T2*)^2          g-factor fluctuations
    T2 = 1e-4 / v                             adiabatic-passage hotspot bound
    T3 = 0.01 * (hbar*a_x*v)^2 / (2*E_vs0^2) * exp((a_x*L_dot)^2 / 2)
                                              valley relaxation, dense disorder
    T4 = 0.01 * (L_s/d_bar) * exp(-0.03*ln(10)*E_vs0*L_dot/(hbar*v))
                                              valley relaxation, sparse disorder

All quantities SI. The 1e-4/v term reads v as a magnitude in m/s, the only
interpretation that keeps the sum dimensionless. Errors from successive
shuttles of one qubit add.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .architecture import _Config

HBAR = 1.054571817e-34  # J*s
UEV = 1.602176634e-25   # J per micro-electronvolt

#: Optimizer bracket, m/s. Spans plausible conveyor speeds around the
#: 10 m/s reference point.
V_BRACKET = (0.01, 1000.0)


@dataclass(frozen=True)
class ErrorModelParams(_Config):
    """Physical parameters of the dephasing model (SI units).

    Defaults are the experiment values: l_c = 100 nm, T2* = 20 us,
    L_dot = 20 nm, E_vs0 = 100 ueV, d_bar = 30 nm, a_x = 0.05 pi/nm.
    """

    l_c: float = 100e-9
    t2_star: float = 20e-6
    l_dot: float = 20e-9
    e_vs0: float = 100.0 * UEV
    d_bar: float = 30e-9
    a_x: float = 0.05 * math.pi * 1e9

    # in nm / us / ueV / (pi/nm)
    _CONFIG = {
        "l_c_nm": ("l_c", lambda x: x * 1e9, lambda x: x * 1e-9),
        "t2_star_us": ("t2_star", lambda t: t * 1e6, lambda t: t * 1e-6),
        "l_dot_nm": ("l_dot", lambda x: x * 1e9, lambda x: x * 1e-9),
        "e_vs0_uev": ("e_vs0", lambda e: e / UEV, lambda e: e * UEV),
        "d_bar_nm": ("d_bar", lambda x: x * 1e9, lambda x: x * 1e-9),
        "a_x_pi_per_nm": ("a_x", lambda a: a / (math.pi * 1e9), lambda a: a * math.pi * 1e9),
    }

    def __post_init__(self) -> None:
        for name in ("l_c", "t2_star", "l_dot", "e_vs0", "d_bar", "a_x"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_v(v: float) -> None:
    if not v > 0:
        raise ValueError(f"velocity must be strictly positive, got {v}")


def _check_l_s(l_s) -> None:
    """Reject a negative distance; ``l_s`` is a float or an array."""
    if isinstance(l_s, np.ndarray):
        negative = l_s[l_s < 0]
        l_s = negative.item(0) if len(negative) else 0.0
    if l_s < 0:
        raise ValueError(f"distance must be nonnegative, got {l_s}")


def phase_error_terms(v: float, l_s, p: ErrorModelParams) -> tuple:
    """The four dephasing contributions at velocity ``v`` and distance
    ``l_s``. ``l_s`` may be an array of distances: t1 and t4 are then
    arrays, each element with the bits of the float expression."""
    _check_v(v)
    _check_l_s(l_s)
    t1 = 2.0 * p.l_c * l_s / (v * p.t2_star) ** 2
    t2 = 1e-4 / v
    t3 = 0.01 * 0.5 * (HBAR * p.a_x * v) ** 2 / p.e_vs0**2 * math.exp(
        (p.a_x * p.l_dot) ** 2 / 2.0
    )
    t4 = 0.01 * (l_s / p.d_bar) * math.exp(
        -0.03 * math.log(10.0) * p.e_vs0 * p.l_dot / (HBAR * v)
    )
    return t1, t2, t3, t4


def phase_error(v: float, l_s, p: ErrorModelParams):
    """Total phase error of one shuttle: sum of the four terms (an array
    for an array of distances ``l_s``)."""
    t1, t2, t3, t4 = phase_error_terms(v, l_s, p)
    return t1 + t2 + t3 + t4


def _phase_errors(velocity: np.ndarray, dist: np.ndarray, errp: ErrorModelParams) -> np.ndarray:
    """``phase_error`` of every (velocity, distance) row, with the bits of
    the scalar calls: one call per distinct velocity, in the order the
    velocities first come, over that velocity's distances as an array.

    Every division in the formula has a denominator of the velocity and
    the parameters alone, and ``math.exp`` stays per velocity. Each
    velocity's first row goes through the scalar path first, so a velocity
    ``phase_error`` cannot evaluate raises, at the first row that has it,
    what the scalar path raises (an array divided by zero would give inf,
    not ZeroDivisionError)."""
    keys, first, which = np.unique(velocity.view(np.int64), return_index=True, return_inverse=True)
    rows = np.argsort(which, kind="stable")  # grouped by velocity
    bounds = np.append(0, np.cumsum(np.bincount(which))).tolist()
    dc, vs = np.empty(len(velocity)), keys.view(np.float64).tolist()
    with np.errstate(all="ignore"):  # Python floats overflow to inf silently
        for k in np.argsort(first).tolist():
            phase_error(vs[k], dist.item(first[k]), errp)
            group = rows[bounds[k]:bounds[k + 1]]
            dc[group] = phase_error(vs[k], dist[group], errp)
    return dc


@functools.lru_cache(maxsize=4096)
def optimal_velocity(l_s: float, p: ErrorModelParams) -> float:
    """Velocity in ``V_BRACKET`` minimizing the phase error for ``l_s``.

    A 64-point geometric scan locates the bracket containing the global
    minimum (guarding against non-unimodality), then golden-section search
    on ln(v) refines it to an absolute tolerance of 1e-6 on ln(v).
    Deterministic, so results are memoised per (l_s, p); boundary optima
    return the boundary exactly.
    """
    if l_s < 0:
        raise ValueError(f"distance must be nonnegative, got {l_s}")

    def f_log(x: float) -> float:
        return phase_error(math.exp(x), l_s, p)

    lo, hi = math.log(V_BRACKET[0]), math.log(V_BRACKET[1])
    n_scan = 64
    xs = [lo + (hi - lo) * i / n_scan for i in range(n_scan + 1)]
    fs = [f_log(x) for x in xs]
    best = min(range(n_scan + 1), key=lambda i: fs[i])

    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, n_scan)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - (b - a) * inv_phi
    d = a + (b - a) * inv_phi
    fc, fd = f_log(c), f_log(d)
    while b - a > 1e-6:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * inv_phi
            fc = f_log(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * inv_phi
            fd = f_log(d)

    # Snap to a bracket edge when the edge is at least as good: boundary
    # optima then come back exactly as V_BRACKET's ends.
    candidates = (*V_BRACKET, math.exp((a + b) / 2.0))
    return min(candidates, key=lambda v: phase_error(v, l_s, p))
