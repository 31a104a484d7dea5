"""Schedules: the ops of a mapped circuit as columns, and their wire format.

A schedule's ops are held as columns (``ScheduleOps``): one array per
shuttle field, one per gate field, and an order string that interleaves
the two. The mapper hands its arrays over as they are, and
``schedule_from_json`` its columns of JSON values; an iterable of ops goes
through rows (``ScheduleOps.from_rows``). The validator,
``metrics.summarize`` and ``schedule_to_json`` read the arrays.
``Schedule.ops`` has a length without building ops, builds
``ShuttleOp``/``GateOp`` objects only when iterated, and equals another
``ScheduleOps`` of the same columns; it is neither indexed nor hashed, so
neither is a ``Schedule``. A ``Schedule`` given ops objects, as by
``Schedule(ops=...)`` or ``dataclasses.replace``, turns them into columns.
"""
from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .architecture import (
    _LOCATION_KINDS,
    ArchitectureSpec,
    Location,
    LocationKind,
    _location,
    _location_code,
    json_number,
    position,
    shuttle_time,
)
from .circuit import Circuit
from .error_model import ErrorModelParams


@dataclass(frozen=True)
class ShuttleOp:
    """One qubit moving src -> dst at constant velocity, incurring delta_c."""

    qubit: int
    src: Location
    dst: Location
    start: float
    velocity: float
    duration: float
    delta_c: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class GateOp:
    """Gate ``gate_index`` of the circuit executing in ``zone``."""

    gate_index: int
    zone: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class ShuttleColumns(NamedTuple):
    """One read-only array per ``ShuttleOp`` field, in op order.

    ``src`` and ``dst`` hold locations as ``2 * index + is_zone``.
    """

    qubit: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    start: np.ndarray
    velocity: np.ndarray
    duration: np.ndarray
    delta_c: np.ndarray


class GateColumns(NamedTuple):
    """One read-only array per ``GateOp`` field, in op order."""

    gate_index: np.ndarray
    zone: np.ndarray
    start: np.ndarray
    duration: np.ndarray


_DTYPES = {"q": np.int64, "d": np.float64}
_TYPECODES = {ShuttleColumns: "qqqdddd", GateColumns: "qqdd"}


def _columns(cls, cols: dict):
    """``cls`` of the values ``cols`` maps each field to (none if absent);
    ``array`` raises TypeError on a value that is not a number, or on a
    non-integer in an integer column, and OverflowError on an integer beyond
    64 bits."""
    codes = zip(cls._fields, _TYPECODES[cls])
    return cls(*(np.frombuffer(array(code, cols.get(name, ())), dtype=_DTYPES[code]) for name, code in codes))


def _frozen(cols):
    """``cols`` made read-only after checking that every column is a 1-D
    array of its field's dtype, all of one length (TypeError otherwise),
    and that the float columns hold finite numbers only (ValueError)."""
    cls = type(cols)
    for name, code, col in zip(cls._fields, _TYPECODES[cls], cols):
        if not (isinstance(col, np.ndarray) and col.dtype == _DTYPES[code] and col.shape == (len(cols[0]),)):
            raise TypeError(f"{cls.__name__} column {name} is not a 1-D {np.dtype(_DTYPES[code])} array of the rows")
        if code == "d" and not np.isfinite(col).all():
            raise ValueError(f"{cls.__name__} column {name} is not finite")
        col.flags.writeable = False
    return cols


class ScheduleOps:
    """``Schedule.ops``: the ops of a schedule held as columns.

    ``order`` has one character per op, ``"s"`` for the next shuttle row
    and ``"g"`` for the next gate row. The column arrays are taken, not
    copied, and made read-only; float columns hold finite numbers only
    (ValueError otherwise). It has a length, iterating it builds
    ``ShuttleOp``/``GateOp`` objects in op order, and it equals another
    ``ScheduleOps`` with the same order and columns. It is not hashable.
    """

    __slots__ = ("order", "shuttles", "gates")

    def __init__(self, order: str, shuttles: ShuttleColumns, gates: GateColumns):
        self.shuttles, self.gates = _frozen(ShuttleColumns(*shuttles)), _frozen(GateColumns(*gates))
        rows = (len(self.shuttles.qubit), len(self.gates.gate_index))
        if (order.count("s"), order.count("g"), len(order)) != (*rows, sum(rows)):
            raise ValueError("op order does not match the shuttle and gate rows")
        self.order = order

    @classmethod
    def from_rows(cls, order: str, shuttles: list[tuple], gates: list[tuple]) -> "ScheduleOps":
        """The columns of shuttle rows and gate rows, each a tuple of its
        ``ShuttleOp``/``GateOp`` fields with locations as codes."""
        kinds = ((ShuttleColumns, shuttles), (GateColumns, gates))
        return cls(order, *(_columns(c, dict(zip(c._fields, zip(*rows)))) for c, rows in kinds))

    @classmethod
    def of(cls, ops) -> "ScheduleOps":
        """The columns of an iterable of ``ShuttleOp``s and ``GateOp``s."""
        if isinstance(ops, ScheduleOps):
            return ops
        order, shuttles, gates = [], [], []
        for op in ops:
            if isinstance(op, ShuttleOp):
                order.append("s")
                shuttles.append(
                    (op.qubit, _location_code(op.src), _location_code(op.dst),
                     op.start, op.velocity, op.duration, op.delta_c)
                )
            elif isinstance(op, GateOp):
                order.append("g")
                gates.append((op.gate_index, op.zone, op.start, op.duration))
            else:
                raise TypeError(f"not a ShuttleOp or GateOp: {op!r}")
        return cls.from_rows("".join(order), shuttles, gates)

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        q, src, dst, *rest = (col.tolist() for col in self.shuttles)
        loc = {code: _location(code) for code in {*src, *dst}}
        src, dst = map(loc.__getitem__, src), map(loc.__getitem__, dst)
        nexts = {
            "s": map(ShuttleOp, q, src, dst, *rest).__next__,
            "g": map(GateOp, *(col.tolist() for col in self.gates)).__next__,
        }
        for kind in self.order:
            yield nexts[kind]()

    def __eq__(self, other):
        if not isinstance(other, ScheduleOps):
            return NotImplemented
        return self.order == other.order and all(
            np.array_equal(a, b) for a, b in zip(self.shuttles + self.gates, other.shuttles + other.gates)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"<ScheduleOps: {len(self.shuttles.qubit)} shuttles, {len(self.gates.gate_index)} gates>"


@dataclass(frozen=True)
class Schedule:
    """A validated plan: time-ordered ops plus accumulated per-qubit error.

    ``ops`` may be given as any iterable of ``ShuttleOp``/``GateOp``; it is
    held as ``ScheduleOps``, so a ``Schedule`` is not hashable. Op fields
    must be numbers that fit the columns (integer fields 64-bit integers),
    or construction raises TypeError or OverflowError. Float op fields,
    ``total_time`` and every ``per_qubit_error`` entry must be finite, or it
    raises ValueError. Every ``initial_sites`` and ``final_sites`` entry must
    be a 64-bit integer (a bool is not), or it raises TypeError or
    OverflowError.
    """

    strategy: str
    circuit: Circuit
    arch: ArchitectureSpec
    error_params: ErrorModelParams
    initial_sites: tuple[int, ...]
    ops: ScheduleOps
    total_time: float
    per_qubit_error: tuple[float, ...]
    final_sites: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", ScheduleOps.of(self.ops))
        for name in ("initial_sites", "final_sites"):
            sites = getattr(self, name)
            if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in sites):
                raise TypeError(f"{name} entries must be integers, got {sites!r}")
            object.__setattr__(self, name, tuple(array("q", sites).tolist()))
        if not all(map(math.isfinite, (self.total_time, *self.per_qubit_error))):
            raise ValueError("total_time and per_qubit_error must be finite")


# JSON serialization: a header (strategy, architecture, placement, error
# params) and the op array, times rounded to 1 ps for byte-determinism.
def _index(value, name: str) -> int:
    """A JSON integer index; ``int()`` would read 3.9 as 3 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _member(obj, key: str, kind=object):
    """``obj[key]``, where ``obj`` must be a JSON object holding ``key`` and
    the value a ``kind``; ValueError otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"expected a JSON object with key {key!r}, got {type(obj).__name__}")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{key} must be a {kind.__name__}, got {type(obj[key]).__name__}")
    return obj[key]


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _ns_json(seconds: float, name: str) -> str:
    """``json.dumps`` of ``seconds`` in ns rounded to 1 ps; ValueError if
    that is not a finite number."""
    ns = round(seconds * 1e9, 3)
    if not math.isfinite(ns):
        raise ValueError(f"{name} {seconds!r} s is too large to write in ns")
    return repr(ns)


# Below 2**43 ns a double's spacing is under 1 ps, so no decimal shorter
# than a whole number of ps reads back as the same double.
_PS_EXACT_NS = 2.0**43


@functools.cache
def _ps_decimals() -> np.ndarray:
    """The text after the whole ns of each remainder of 0-999 ps, as
    ``repr`` writes it: ".0", ".001", ..., ".5", ..., ".999"."""
    return np.array([repr(r / 1000)[1:] for r in range(1000)], dtype=object)


def _ns_texts(seconds: np.ndarray, name: str) -> np.ndarray:
    """``_ns_json`` of every value of ``seconds``, by integer picoseconds.

    ``ps = seconds * 1e9 * 1000`` is within half its spacing of the exact
    product of the ns value and 1000. Where it lies more than one spacing
    from a half-integer, ``rint(ps)`` is therefore the whole number of ps
    that ``round(ns, 3)`` takes, and below ``_PS_EXACT_NS`` ``repr`` writes
    it as its whole ns and stripped remainder. Any other value (a near-tie,
    one too large, or one that overflows) goes through ``_ns_json``, which
    raises ValueError naming ``name`` for a value it cannot write.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ns = seconds * 1e9
        ps = ns * 1000.0
        exact = (np.abs(ns) < _PS_EXACT_NS) & (np.abs(ps - np.floor(ps) - 0.5) > np.spacing(np.abs(ps)))
    whole = np.rint(ps[exact])
    ns_part, ps_part = np.divmod(np.abs(whole).astype(np.int64), 1000)
    texts = np.empty(len(seconds), dtype=object)
    texts[exact] = (
        np.array(["", "-"], dtype=object)[np.signbit(whole).view(np.uint8)]
        + np.array(list(map(str, ns_part.tolist())), dtype=object)
        + _ps_decimals()[ps_part]
    )
    for i in np.flatnonzero(~exact).tolist():
        texts[i] = _ns_json(seconds.item(i), name)
    return texts


def _reprs(values: np.ndarray, key: str) -> list[str]:
    return list(map(repr, values.tolist()))


def _loc_texts(codes: np.ndarray, key: str) -> list[str]:
    return ['{"idx":%d,"kind":"%s"}' % (code >> 1, _LOCATION_KINDS[code & 1].value) for code in codes.tolist()]


def _seconds(value, key: str) -> float:
    return json_number(value, key) * 1e-9


def _code(obj: dict, key: str) -> int:
    """The location code of a JSON location, on the bus or not."""
    return 2 * _index(obj["idx"], f"{key} idx") + (LocationKind(obj["kind"]) is LocationKind.ZONE)


# Each op kind's wire format, declared once: (column, JSON key, writer,
# reader) in key order. A writer texts an array of distinct values, a reader
# one JSON value; both take the key to name in errors. Shuttle durations are
# not written: the reader derives them from the positions and velocities.
_SHUTTLE_FIELDS = (
    ("delta_c", "dC", _reprs, json_number),
    ("src", "from", _loc_texts, _code),
    ("qubit", "q", _reprs, _index),
    ("start", "t0_ns", _ns_texts, _seconds),
    ("dst", "to", _loc_texts, _code),
    ("velocity", "v_mps", _reprs, json_number),
)
_GATE_FIELDS = (
    ("duration", "dur_ns", _ns_texts, _seconds),
    ("gate_index", "gate", _reprs, _index),
    ("start", "t0_ns", _ns_texts, _seconds),
    ("zone", "zone", _reprs, _index),
)
# An op holding this key, the first that gates lack, is a shuttle.
_SHUTTLE_KEY = next(key for _, key, _, _ in _SHUTTLE_FIELDS if key not in {f[1] for f in _GATE_FIELDS})


def _fields(cols, fields):
    """The text of every row of each field, in ``fields`` order, with its
    ``,`` (``,{`` for an op's first field), its key and, after an op's last
    field, ``}``. Each distinct value (bit pattern, so 0.0 and -0.0 stay
    apart) is written once; the rows gather their texts by array indexing."""
    for k, (name, key, write, _) in enumerate(fields):
        col = getattr(cols, name)
        keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
        texts = ("," if k else ",{") + _dumps(key) + ":" + np.array(write(keys.view(col.dtype), key), dtype=object)
        yield (texts + "}" if k == len(fields) - 1 else texts)[inverse]


def _ops_json(ops: ScheduleOps) -> list[str]:
    """The op array's fragments, one per op field, in op order; joined, they
    are the array's text without its brackets, the first op's comma dropped."""
    shuttle = np.frombuffer(ops.order.encode(), dtype=np.uint8) == ord("s")
    width = np.where(shuttle, len(_SHUTTLE_FIELDS), len(_GATE_FIELDS))
    first = np.cumsum(width) - width
    fragments = np.empty(int(width.sum()), dtype=object)
    kinds = ((first[shuttle], ops.shuttles, _SHUTTLE_FIELDS), (first[~shuttle], ops.gates, _GATE_FIELDS))
    for rows, cols, fields in kinds:
        for k, texts in enumerate(_fields(cols, fields)):
            fragments[rows + k] = texts
    if len(fragments):
        fragments[0] = fragments[0][1:]
    return fragments.tolist()


def schedule_to_json(s: Schedule) -> str:
    """The schedule's JSON text: keys sorted, no spaces, one newline.

    The op array is built from the columns: each distinct location and
    number is formatted once, with its key, as ``json.dumps`` formats it,
    and each distinct time by integer picosecond arithmetic
    (``_ns_texts``); the rows gather these texts by array indexing into a
    list of fragments in op order, joined once into the header's text where
    its empty op array is. Times are written in ns rounded to 1 ps; one too
    large for that to be a finite number (an op start, a gate duration or
    ``total_time`` of about 1.8e299 s or more) raises ValueError naming its
    field, where ``json.dumps`` would write the non-JSON ``Infinity``.
    """
    header = _dumps({
        "strategy": s.strategy,
        "arch": s.arch.to_config(),
        "placement": list(s.initial_sites),
        "error_params": s.error_params.to_config(),
        "ops": [],
        "total_time_ns": float(_ns_json(s.total_time, "total_time_ns")),  # json.dumps writes that text
        "per_qubit_error": list(s.per_qubit_error),
        "final_sites": list(s.final_sites),
    })
    before, after = header.split('"ops":[]', 1)  # no key before it can hold that text
    return "".join([before, '"ops":[', *_ops_json(s.ops), "]", after, "\n"])


def schedule_from_json(text: str, circuit: Circuit) -> Schedule:
    """Rebuild a Schedule from its JSON form and the circuit it was mapped from.

    Every index field must be a JSON integer (one that fits 64 bits in an
    op) and every other numeric field a finite JSON number (not a bool, a
    string, NaN, an infinity or an integer too large for a float), and
    every other key must be present with a value of its JSON type (an
    object, an array, or a string for ``strategy`` and a location's
    ``kind``), or ValueError is raised: a malformed document raises no other
    error. The ops are read a field at a time, in key order.
    Start times come back rounded to 1 ps and the error parameters pass
    through their nm/us/ueV form, so the result need not revalidate: a move
    can start before the previous one ends, and a stored ``dC`` can differ
    in its last bits from the one the reloaded parameters give.
    """
    doc = json.loads(text)
    arch = ArchitectureSpec.from_config(_member(doc, "arch"))
    errp = ErrorModelParams.from_config(_member(doc, "error_params"))
    ops = _member(doc, "ops", list)
    order = "".join("s" if isinstance(op, dict) and _SHUTTLE_KEY in op else "g" for op in ops)
    # the readers raise ValueError, so a KeyError or TypeError here is an op
    # or a location that is not an object, or that lacks a key
    try:
        shuttles, gates = (
            {name: [read(op[key], key) for op, k in zip(ops, order) if k == kind] for name, key, _, read in fields}
            for kind, fields in (("s", _SHUTTLE_FIELDS), ("g", _GATE_FIELDS))
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed op: {exc!r}") from exc
    src, dst = shuttles["src"], shuttles["dst"]
    positions = {code: position(_location(code), arch) for code in dict.fromkeys(src + dst)}  # raises off the bus
    dist = [abs(positions[a] - positions[b]) for a, b in zip(src, dst)]
    shuttles["duration"] = list(map(shuttle_time, dist, shuttles["velocity"]))
    try:
        return Schedule(
            strategy=_member(doc, "strategy", str),
            circuit=circuit,
            arch=arch,
            error_params=errp,
            initial_sites=tuple(_index(x, "placement") for x in _member(doc, "placement", list)),
            ops=ScheduleOps(order, _columns(ShuttleColumns, shuttles), _columns(GateColumns, gates)),
            total_time=_seconds(_member(doc, "total_time_ns"), "total_time_ns"),
            per_qubit_error=tuple(json_number(x, "per_qubit_error") for x in _member(doc, "per_qubit_error", list)),
            final_sites=tuple(_index(x, "final_sites") for x in _member(doc, "final_sites", list)),
        )
    except OverflowError as exc:  # an op index beyond the columns' 64 bits
        raise ValueError(f"index too large: {exc}") from exc
