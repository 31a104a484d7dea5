"""1D shuttling-bus geometry: storage sites, manipulation zones, timing.

The bus is a line of ``n_sites`` storage sites, one qubit per site, with a
manipulation zone between every pair of neighbours. Zone ``j`` sits
immediately to the right of site ``j``, so with the default pitch the
layout in micrometres reads

    site 0 (0) | zone 0 (1) | site 1 (2) | zone 1 (3) | site 2 (4) | ...

All quantities are SI internally (metres, seconds); the JSON config
interface speaks um / ns / m/s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

UM = 1e-6
NS = 1e-9


def json_number(value, name: str) -> float:
    """A finite JSON number as a float; ``float()`` would read true as 1 and
    "20" as 20, and raise OverflowError on an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {number!r}")
    return number


class LocationKind(Enum):
    STORAGE = "storage"
    ZONE = "zone"


@dataclass(frozen=True)
class Location:
    """A tagged position on the bus: storage site or manipulation zone."""

    kind: LocationKind
    index: int

    @staticmethod
    def site(index: int) -> "Location":
        return Location(LocationKind.STORAGE, index)

    @staticmethod
    def zone(index: int) -> "Location":
        return Location(LocationKind.ZONE, index)

    @property
    def is_site(self) -> bool:
        return self.kind is LocationKind.STORAGE

    def __repr__(self) -> str:
        tag = "Q" if self.is_site else "O"
        return f"{tag}{self.index}"


@dataclass(frozen=True)
class ArchitectureSpec:
    """Geometry and timing constants of the bus.

    n_sites equals both the qubit count and the manipulation-zone count;
    it must be an integer (a bool is not), or construction raises
    TypeError, and a numpy integer is stored as an ``int``. Defaults: 2 um
    site pitch, 1 um site-to-zone offset, 10 m/s shuttle velocity, 20 ns
    single-qubit and 45 ns two-qubit gates.
    """

    n_sites: int
    site_pitch: float = 2 * UM
    zone_offset: float = 1 * UM
    default_velocity: float = 10.0
    t_1q: float = 20 * NS
    t_2q: float = 45 * NS

    def __post_init__(self) -> None:
        n = self.n_sites
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"n_sites must be an integer, got {n!r}")
        object.__setattr__(self, "n_sites", int(n))
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        for name in ("site_pitch", "zone_offset", "default_velocity", "t_1q", "t_2q"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.zone_offset < self.site_pitch:
            raise ValueError(
                f"zone_offset ({self.zone_offset}) must be smaller than "
                f"site_pitch ({self.site_pitch})"
            )

    def check_location(self, loc: Location) -> None:
        if not 0 <= loc.index < self.n_sites:
            raise ValueError(f"location {loc!r} out of range for {self.n_sites} positions")

    def to_config(self) -> dict:
        """Flat key-value form in um / ns / m/s."""
        return {
            "n_sites": self.n_sites,
            "site_pitch_um": self.site_pitch / UM,
            "zone_offset_um": self.zone_offset / UM,
            "default_velocity_mps": self.default_velocity,
            "t_1q_ns": self.t_1q / NS,
            "t_2q_ns": self.t_2q / NS,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "ArchitectureSpec":
        """Inverse of ``to_config``; keys it does not write are rejected."""
        unknown = sorted(set(cfg) - set(cls(n_sites=2).to_config()))
        if unknown:
            raise ValueError(f"unknown architecture keys {unknown}")
        n_sites = cfg["n_sites"]
        if int(json_number(n_sites, "n_sites")) != n_sites:
            raise ValueError(f"n_sites must be a whole number, got {n_sites!r}")

        def number(key: str, default: float) -> float:
            return json_number(cfg.get(key, default), key)

        return cls(
            n_sites=int(n_sites),
            site_pitch=number("site_pitch_um", 2.0) * UM,
            zone_offset=number("zone_offset_um", 1.0) * UM,
            default_velocity=number("default_velocity_mps", 10.0),
            t_1q=number("t_1q_ns", 20.0) * NS,
            t_2q=number("t_2q_ns", 45.0) * NS,
        )


def position(loc: Location, spec: ArchitectureSpec) -> float:
    """Position of a location along the bus, in metres."""
    spec.check_location(loc)
    base = loc.index * spec.site_pitch
    return base if loc.is_site else base + spec.zone_offset


_LOCATION_KINDS = (LocationKind.STORAGE, LocationKind.ZONE)


def _location_code(loc: Location) -> int:
    if not isinstance(loc, Location) or loc.kind not in _LOCATION_KINDS:
        raise TypeError(f"not a Location: {loc!r}")
    return 2 * loc.index + (loc.kind is LocationKind.ZONE)


def _location(code: int) -> Location:
    return Location(_LOCATION_KINDS[code & 1], code >> 1)


def decode_locations(code: np.ndarray, spec: ArchitectureSpec):
    """(is_zone, index, position, on_bus) columns of location codes ``2 *
    index + is_zone``: ``position()`` as numpy, with its bits, where
    ``on_bus`` holds (``position()``'s range check)."""
    zone, index = (code & 1).astype(bool), code >> 1
    base = index * spec.site_pitch
    on_bus = (index >= 0) & (index < spec.n_sites)
    return zone, index, np.where(zone, base + spec.zone_offset, base), on_bus


def distance(a: Location, b: Location, spec: ArchitectureSpec) -> float:
    """Absolute distance between two locations, in metres."""
    return abs(position(a, spec) - position(b, spec))


def shuttle_time(dist: float, velocity: float) -> float:
    """Duration of a shuttle covering ``dist`` at ``velocity``."""
    if not velocity > 0:
        raise ValueError(f"velocity must be strictly positive, got {velocity}")
    if dist < 0:
        raise ValueError(f"distance must be nonnegative, got {dist}")
    return dist / velocity
