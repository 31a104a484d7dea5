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

from .architecture import json_number

HBAR = 1.054571817e-34  # J*s
UEV = 1.602176634e-25   # J per micro-electronvolt

#: Optimizer bracket, m/s. Spans plausible conveyor speeds around the
#: 10 m/s reference point.
V_BRACKET = (0.01, 1000.0)


@dataclass(frozen=True)
class ErrorModelParams:
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

    def __post_init__(self) -> None:
        for name in ("l_c", "t2_star", "l_dot", "e_vs0", "d_bar", "a_x"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def to_config(self) -> dict:
        """Flat key-value form in nm / us / ueV / (pi/nm)."""
        return {
            "l_c_nm": self.l_c * 1e9,
            "t2_star_us": self.t2_star * 1e6,
            "l_dot_nm": self.l_dot * 1e9,
            "e_vs0_uev": self.e_vs0 / UEV,
            "d_bar_nm": self.d_bar * 1e9,
            "a_x_pi_per_nm": self.a_x / (math.pi * 1e9),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "ErrorModelParams":
        """Inverse of ``to_config``; keys it does not write are rejected."""
        unknown = sorted(set(cfg) - set(cls().to_config()))
        if unknown:
            raise ValueError(f"unknown error-model keys {unknown}")

        def number(key: str, default: float) -> float:
            return json_number(cfg.get(key, default), key)

        return cls(
            l_c=number("l_c_nm", 100.0) * 1e-9,
            t2_star=number("t2_star_us", 20.0) * 1e-6,
            l_dot=number("l_dot_nm", 20.0) * 1e-9,
            e_vs0=number("e_vs0_uev", 100.0) * UEV,
            d_bar=number("d_bar_nm", 30.0) * 1e-9,
            a_x=number("a_x_pi_per_nm", 0.05) * math.pi * 1e9,
        )


def _check_v(v: float) -> None:
    if not v > 0:
        raise ValueError(f"velocity must be strictly positive, got {v}")


def phase_error_terms(
    v: float, l_s: float, p: ErrorModelParams
) -> tuple[float, float, float, float]:
    """The four dephasing contributions at velocity ``v`` and distance ``l_s``."""
    _check_v(v)
    if l_s < 0:
        raise ValueError(f"distance must be nonnegative, got {l_s}")
    t1 = 2.0 * p.l_c * l_s / (v * p.t2_star) ** 2
    t2 = 1e-4 / v
    t3 = 0.01 * 0.5 * (HBAR * p.a_x * v) ** 2 / p.e_vs0**2 * math.exp(
        (p.a_x * p.l_dot) ** 2 / 2.0
    )
    t4 = 0.01 * (l_s / p.d_bar) * math.exp(
        -0.03 * math.log(10.0) * p.e_vs0 * p.l_dot / (HBAR * v)
    )
    return t1, t2, t3, t4


def phase_error(v: float, l_s: float, p: ErrorModelParams) -> float:
    """Total phase error of one shuttle: sum of the four terms."""
    t1, t2, t3, t4 = phase_error_terms(v, l_s, p)
    return t1 + t2 + t3 + t4


def _phase_errors(velocity: np.ndarray, dist: np.ndarray, errp: ErrorModelParams) -> np.ndarray:
    """``phase_error`` of every (velocity, distance) row, run once per
    distinct pair in the order the pairs first come. Each pair is one exact
    complex, and its parts go in as Python floats, so a velocity
    ``phase_error`` rejects raises as the scalar path does."""
    keys, seen, which = np.unique(velocity + 1j * dist, return_index=True, return_inverse=True)
    key_dc, keys = np.empty(len(keys)), keys.tolist()
    for k in np.argsort(seen).tolist():
        key_dc[k] = phase_error(keys[k].real, keys[k].imag, errp)
    return key_dc[which]


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
