"""Schedules: the ops of a mapped circuit as columns, and their wire format.

A schedule's ops are held as columns (``ScheduleOps``): one array per
shuttle field, one per gate field, and an order string that interleaves
the two. The mapper hands its arrays over as they are;
``schedule_from_json`` and a tuple of ops go through rows
(``ScheduleOps.from_rows``). The validator, ``metrics.summarize`` and
``schedule_to_json`` read the arrays.
``Schedule.ops`` is that column sequence: it has a length without building
ops, and builds ``ShuttleOp``/``GateOp`` objects only when iterated or
indexed. A ``Schedule`` given a tuple of ops turns it into columns.
"""
from __future__ import annotations

import functools
import json
import math
from array import array
from collections.abc import Sequence
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


def _columns(cls, rows: list[tuple]):
    """``rows`` transposed into ``cls``; ``array`` raises TypeError on a value
    that is not a number, or on a non-integer in an integer column, and
    OverflowError on an integer beyond 64 bits."""
    typecodes = _TYPECODES[cls]
    cols = list(zip(*rows)) or [()] * len(typecodes)
    return cls(*(np.frombuffer(array(code, col), dtype=_DTYPES[code]) for code, col in zip(typecodes, cols)))


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


class ScheduleOps(Sequence):
    """``Schedule.ops``: the ops of a schedule held as columns.

    ``order`` has one character per op, ``"s"`` for the next shuttle row
    and ``"g"`` for the next gate row. The column arrays are taken, not
    copied, and made read-only; float columns hold finite numbers only
    (ValueError otherwise). Iterating or indexing builds
    ``ShuttleOp``/``GateOp`` objects; a slice is a plain tuple. It equals
    the tuple of the same ops, and ``+`` with a tuple gives a tuple.
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
        return cls(order, _columns(ShuttleColumns, shuttles), _columns(GateColumns, gates))

    @classmethod
    def of(cls, ops) -> "ScheduleOps":
        """The columns of a sequence of ``ShuttleOp``s and ``GateOp``s."""
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

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        index = range(len(self))[index]
        k = self.order.count("s", 0, index)
        if self.order[index] == "g":
            return GateOp(*(col.item(index - k) for col in self.gates))
        q, src, dst, *rest = (col.item(k) for col in self.shuttles)
        return ShuttleOp(q, _location(src), _location(dst), *rest)

    def __eq__(self, other):
        if isinstance(other, ScheduleOps):
            return self.order == other.order and all(
                np.array_equal(a, b)
                for a, b in zip(self.shuttles + self.gates, other.shuttles + other.gates)
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        if isinstance(other, (tuple, ScheduleOps)):
            return tuple(self) + tuple(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, tuple):
            return other + tuple(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ScheduleOps({tuple(self)!r})"


@dataclass(frozen=True)
class Schedule:
    """A validated plan: time-ordered ops plus accumulated per-qubit error.

    ``ops`` may be given as any sequence of ``ShuttleOp``/``GateOp``; it is
    held as ``ScheduleOps``. Op fields must be numbers that fit the columns
    (integer fields 64-bit integers), or construction raises TypeError or
    OverflowError. Float op fields, ``total_time`` and every
    ``per_qubit_error`` entry must be finite, or it raises ValueError. Every
    ``initial_sites`` and ``final_sites`` entry must be a 64-bit integer (a
    bool is not), or it raises TypeError or OverflowError.
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


# JSON serialization: header (strategy, architecture, placement, error
# params), then the op array. Times round to 1 ps for cross-platform
# byte-determinism.
def _index(value) -> int:
    """A JSON integer index; ``int()`` would read 3.9 as 3 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"index must be an integer, got {value!r}")
    return value


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
_LOCATION_JSON = '{"idx":%d,"kind":"%s"}'


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


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def _loc_texts(codes: np.ndarray) -> list[str]:
    return [_LOCATION_JSON % (code >> 1, _LOCATION_KINDS[code & 1].value) for code in codes.tolist()]


def _fields(cols, fields):
    """The text of every row of each field, in ``fields`` order: ``fields``
    holds (column name, text before the value, formatter, text after), and
    a formatter turns an array of values into their texts. Each distinct
    value (bit pattern, so 0.0 and -0.0 stay apart) is formatted once, and
    the rows gather their texts by array indexing."""
    for name, before, fmt, after in fields:
        col = getattr(cols, name)
        keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
        texts = before + np.array(fmt(keys.view(col.dtype)), dtype=object)
        yield (texts + after if after else texts)[inverse]


# The fields of each op kind in key order. Each op opens with a comma; the
# array's first op drops it.
_SHUTTLE_FIELDS = (
    ("delta_c", ',{"dC":', _reprs, ""),
    ("src", ',"from":', _loc_texts, ""),
    ("qubit", ',"q":', _reprs, ""),
    ("start", ',"t0_ns":', functools.partial(_ns_texts, name="t0_ns"), ""),
    ("dst", ',"to":', _loc_texts, ""),
    ("velocity", ',"v_mps":', _reprs, "}"),
)
_GATE_FIELDS = (
    ("duration", ',{"dur_ns":', functools.partial(_ns_texts, name="dur_ns"), ""),
    ("gate_index", ',"gate":', _reprs, ""),
    ("start", ',"t0_ns":', functools.partial(_ns_texts, name="t0_ns"), ""),
    ("zone", ',"zone":', _reprs, "}"),
)


def _ops_json(ops: ScheduleOps) -> list[str]:
    """The op array's fragments, one per op field, in op order; joined,
    they are the array's text without its brackets."""
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
    list of fragments in op order. One ``join`` of the fields before the op
    array, its fragments and the fields after it makes the text. Times are
    written in ns rounded to 1 ps; one too large for that to be a finite
    number (an op start, a gate duration or ``total_time`` of about 1.8e299
    s or more) raises ValueError naming its field, where ``json.dumps``
    would write the non-JSON ``Infinity``.
    """
    fields = {
        "strategy": _dumps(s.strategy),
        "arch": _dumps(s.arch.to_config()),
        "placement": _dumps(list(s.initial_sites)),
        "error_params": _dumps(s.error_params.to_config()),
        "ops": _ops_json(s.ops),
        "total_time_ns": _ns_json(s.total_time, "total_time_ns"),
        "per_qubit_error": _dumps(list(s.per_qubit_error)),
        "final_sites": _dumps(list(s.final_sites)),
    }
    fragments = fields.pop("ops")
    items = [f"{_dumps(k)}:{v}" for k, v in sorted(fields.items())]
    split = sum(key < "ops" for key in fields)  # the fields before the op array
    fragments.insert(0, "{" + ",".join(items[:split]) + ',"ops":[')
    fragments.append("]," + ",".join(items[split:]) + "}\n")
    return "".join(fragments)


def schedule_from_json(text: str, circuit: Circuit) -> Schedule:
    """Rebuild a Schedule from its JSON form and the circuit it was mapped from.

    Every index field must be a JSON integer (one that fits 64 bits in an
    op) and every other numeric field a finite JSON number (not a bool, a
    string, NaN, an infinity or an integer too large for a float), or
    ValueError is raised. Start times come back rounded to 1 ps and the
    error parameters pass through their nm/us/ueV form, so the result need
    not revalidate: a move can start before the previous one ends, and a
    stored ``dC`` can differ in its last bits from the one the reloaded
    parameters give.
    """
    doc = json.loads(text)
    arch = ArchitectureSpec.from_config(doc["arch"])
    errp = ErrorModelParams.from_config(doc["error_params"])
    positions: dict[int, float] = {}

    def location(obj: dict) -> int:
        """The location code of ``obj``; position() rejects one off the bus."""
        code = 2 * _index(obj["idx"]) + (LocationKind(obj["kind"]) is LocationKind.ZONE)
        if code not in positions:
            positions[code] = position(_location(code), arch)
        return code

    order, shuttles, gates = [], [], []
    for entry in doc["ops"]:
        start = json_number(entry["t0_ns"], "t0_ns") * 1e-9
        if "q" in entry:
            src, dst = location(entry["from"]), location(entry["to"])
            v = json_number(entry["v_mps"], "v_mps")
            dur = shuttle_time(abs(positions[src] - positions[dst]), v)
            shuttles.append((_index(entry["q"]), src, dst, start, v, dur, json_number(entry["dC"], "dC")))
            order.append("s")
        else:
            dur = json_number(entry["dur_ns"], "dur_ns") * 1e-9
            gates.append((_index(entry["gate"]), _index(entry["zone"]), start, dur))
            order.append("g")
    total_time = json_number(doc["total_time_ns"], "total_time_ns") * 1e-9
    try:
        return Schedule(
            strategy=doc["strategy"],
            circuit=circuit,
            arch=arch,
            error_params=errp,
            initial_sites=tuple(_index(x) for x in doc["placement"]),
            ops=ScheduleOps.from_rows("".join(order), shuttles, gates),
            total_time=total_time,
            per_qubit_error=tuple(json_number(x, "per_qubit_error") for x in doc["per_qubit_error"]),
            final_sites=tuple(_index(x) for x in doc["final_sites"]),
        )
    except OverflowError as exc:  # an op index beyond the columns' 64 bits
        raise ValueError(f"index too large: {exc}") from exc
