"""Test oracles the compiler itself never calls: the dense unitary of a 1-2
qubit gate list (checks every decomposition rewrite), exact MinLA by
enumerating all n! placements (bounds spectral placement), the
layer-discounted interaction graph built one gate at a time, the
gate-by-gate decomposition and slicing that the columnar ``decompose`` and
``slice_circuit`` must match bit for bit, the analytic
velocity derivative of the dephasing model (checks the optimizer's minimum),
the op-by-op schedule writer and summary that the columnar
``schedule_to_json`` and ``summarize`` must match bit for bit, the op-by-op
mapper that the two-pass ``map_strategy`` must match bit for bit, and the
character-scanning QASM parser that ``parse_qasm`` must agree with.
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from spinbus.architecture import ArchitectureSpec, Location, distance, position, shuttle_time
from spinbus.circuit import DECOMPOSITION, Circuit, Gate, GateKind, SlicedCircuit, _expand
from spinbus.error_model import HBAR, ErrorModelParams, _check_v, optimal_velocity, phase_error
from spinbus.placement import InteractionGraph, Placement
from spinbus.qasm import GATE_TABLE, QasmSyntaxError, UnsupportedConstructError
from spinbus.schedule import GateOp, Schedule, ScheduleOps, ShuttleOp

_BRUTE_FORCE_LIMIT = 9
_PERM_CACHE: dict[int, np.ndarray] = {}


# Standard gate matrices for the 1-2 qubit unitary oracle. Qubit 0 is the
# most significant bit of the basis-state index.
def _matrix_1q(g: Gate) -> np.ndarray:
    k, a = g.kind, g.angle
    if k is GateKind.H:
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if k is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k is GateKind.Y:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if k is GateKind.Z:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if k is GateKind.S:
        return np.array([[1, 0], [0, 1j]], dtype=complex)
    if k is GateKind.SDG:
        return np.array([[1, 0], [0, -1j]], dtype=complex)
    if k is GateKind.T:
        return np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
    if k is GateKind.TDG:
        return np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex)
    if k is GateKind.RX:
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if k is GateKind.RY:
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k is GateKind.RZ:
        return np.array(
            [[np.exp(-1j * a / 2), 0], [0, np.exp(1j * a / 2)]], dtype=complex
        )
    raise ValueError(f"{k.name} has no unitary")


def _matrix_2q(g: Gate) -> np.ndarray:
    k = g.kind
    if k is GateKind.CZ:
        return np.diag([1, 1, 1, -1]).astype(complex)
    if k is GateKind.SWAP:
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    if k is GateKind.CX:
        control, target = g.qubits
        m = np.zeros((4, 4), dtype=complex)
        for basis in range(4):
            bits = [(basis >> 1) & 1, basis & 1]
            if bits[control]:
                bits[target] ^= 1
            m[(bits[0] << 1) | bits[1], basis] = 1
        return m
    raise ValueError(f"{k.name} has no unitary")


def unitary_of(gates: list[Gate] | tuple[Gate, ...], n: int) -> np.ndarray:
    """Ordered product of the standard unitaries of ``gates`` on n <= 2 qubits.

    Gates apply in list order (first gate acts first). MEASURE/BARRIER are
    rejected. Qubit 0 is the most significant index bit.
    """
    if n not in (1, 2):
        raise ValueError(f"unitary_of supports n in (1, 2), got {n}")
    dim = 2**n
    u = np.eye(dim, dtype=complex)
    eye = np.eye(2, dtype=complex)
    for g in gates:
        if g.kind in (GateKind.MEASURE, GateKind.BARRIER):
            raise ValueError(f"{g.kind.name} is not unitary")
        for q in g.qubits:
            if q >= n:
                raise ValueError(f"operand {q} out of range for n={n}")
        if g.is_two_qubit:
            m = _matrix_2q(g)
        else:
            m1 = _matrix_1q(g)
            if n == 1:
                m = m1
            else:
                m = np.kron(m1, eye) if g.qubits[0] == 0 else np.kron(eye, m1)
        u = m @ u
    return u


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between two matrices after global-phase alignment."""
    flat_a, flat_b = a.ravel(), b.ravel()
    k = int(np.argmax(np.abs(flat_a)))
    if abs(flat_a[k]) < 1e-14 or abs(flat_b[k]) < 1e-14:
        return float(np.max(np.abs(a - b)))
    phase = flat_b[k] / flat_a[k]
    phase /= abs(phase)
    return float(np.max(np.abs(a * phase - b)))


def edges(g: InteractionGraph) -> list[tuple[int, int, float]]:
    """Edges (u, v, weight) with u < v and weight > 0, sorted."""
    u_idx, v_idx = np.nonzero(np.triu(g.weights, 1))
    return [(int(u), int(v), float(g.weights[u, v])) for u, v in zip(u_idx, v_idx)]


def oracle_interaction_graph(sc: SlicedCircuit) -> np.ndarray:
    """The layer-discounted interaction weights, one gate at a time: a
    two-qubit gate on (u, v) in layer l adds 2^-l to w[u, v], then to
    w[v, u]. ``build_interaction_graph`` must give these bits."""
    n = sc.circuit.num_qubits
    w = np.zeros((n, n))
    for layer_idx, layer in enumerate(sc.layers):
        decay = 2.0**-layer_idx
        for gate_idx in layer:
            g = sc.circuit.gates[gate_idx]
            if g.is_two_qubit:
                u, v = g.qubits
                w[u, v] += decay
                w[v, u] += decay
    return w


def oracle_decompose(c: Circuit) -> Circuit:
    """Expand every extended gate into {RX, RZ, H, CZ} through its rows.

    Native gates, MEASURE and BARRIER pass through as the same objects.
    Per-qubit gate order is preserved; no cancellation or optimization is
    attempted.
    """
    gates: list[Gate] = []
    for g in c.gates:
        rows = DECOMPOSITION.get(g.kind)
        if rows is None:
            gates.append(g)
        else:
            gates += (Gate(*row) for row in _expand(rows, g.qubits, g.angle))
    return Circuit(c.num_qubits, tuple(gates))


def oracle_slice_circuit(c: Circuit) -> SlicedCircuit:
    """Cut a native circuit into ASAP layers.

    Every gate lands in the earliest layer consistent with its operand
    dependencies. BARRIER joins its operands' frontiers into one fence and
    occupies a layer slot like any gate (the scheduler skips it).
    """
    if not c.is_native:
        raise ValueError("slice_circuit needs a native-basis circuit")
    level = [0] * c.num_qubits
    layers: list[list[int]] = []
    for idx, g in enumerate(c.gates):
        layer = max(level[q] for q in g.qubits)
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(idx)
        for q in g.qubits:
            level[q] = layer + 1
    return SlicedCircuit(c, tuple(tuple(layer) for layer in layers))


def _all_permutations(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(
            list(itertools.permutations(range(n))), dtype=np.int64
        )
    return _PERM_CACHE[n]


def brute_force_minla(g: InteractionGraph) -> tuple[Placement, float]:
    """Exact MinLA by enumerating all n! arrangements (n <= 9).

    Ties resolve to the lexicographically smallest optimal permutation.
    """
    if g.n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {_BRUTE_FORCE_LIMIT}, got {g.n}")
    perms = _all_permutations(g.n)
    costs = np.zeros(len(perms))
    for u, v, w in edges(g):
        costs += w * np.abs(perms[:, u] - perms[:, v])
    best = int(np.argmin(costs))  # first occurrence = lexicographically smallest
    return Placement(tuple(int(x) for x in perms[best])), float(costs[best])


def d_phase_error_dv(v: float, l_s: float, p: ErrorModelParams) -> float:
    """Analytic derivative of the phase error with respect to velocity."""
    _check_v(v)
    d1 = -4.0 * p.l_c * l_s / (p.t2_star**2 * v**3)
    d2 = -1e-4 / v**2
    d3 = 0.01 * (HBAR * p.a_x) ** 2 * v / p.e_vs0**2 * math.exp(
        (p.a_x * p.l_dot) ** 2 / 2.0
    )
    b = 0.03 * math.log(10.0) * p.e_vs0 * p.l_dot / HBAR
    d4 = 0.01 * (l_s / p.d_bar) * math.exp(-b / v) * b / v**2
    return d1 + d2 + d3 + d4


def _loc_json(loc) -> dict:
    return {"kind": loc.kind.value, "idx": loc.index}


def oracle_schedule_to_json(s: Schedule) -> str:
    """The schedule JSON writer as it was before the op columns: one dict
    per op, iterating ``s.ops``, and one ``json.dumps`` of the document,
    which raises ValueError on a time too large to be finite in ns."""
    ops = []
    for op in s.ops:
        if isinstance(op, ShuttleOp):
            ops.append(
                {
                    "q": op.qubit,
                    "from": _loc_json(op.src),
                    "to": _loc_json(op.dst),
                    "t0_ns": round(op.start * 1e9, 3),
                    "v_mps": op.velocity,
                    "dC": op.delta_c,
                }
            )
        else:
            ops.append(
                {
                    "gate": op.gate_index,
                    "zone": op.zone,
                    "t0_ns": round(op.start * 1e9, 3),
                    "dur_ns": round(op.duration * 1e9, 3),
                }
            )
    doc = {
        "strategy": s.strategy,
        "arch": s.arch.to_config(),
        "placement": list(s.initial_sites),
        "error_params": s.error_params.to_config(),
        "ops": ops,
        "total_time_ns": round(s.total_time * 1e9, 3),
        "per_qubit_error": list(s.per_qubit_error),
        "final_sites": list(s.final_sites),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def oracle_summary_counts(s: Schedule) -> tuple[int, float, int, int]:
    """(n_shuttles, total_distance, n_gates_1q, n_gates_2q) as ``summarize``
    counted them before the op columns: op by op, distances added in op
    order."""
    n_shuttles = 0
    total_distance = 0.0
    n_1q = n_2q = 0
    for op in s.ops:
        if isinstance(op, ShuttleOp):
            n_shuttles += 1
            total_distance += distance(op.src, op.dst, s.arch)
        elif isinstance(op, GateOp):
            if s.circuit.gates[op.gate_index].is_two_qubit:
                n_2q += 1
            else:
                n_1q += 1
    return n_shuttles, total_distance, n_1q, n_2q


def _schedulable(g: Gate, measure_duration: float | None) -> bool:
    """Whether ``g`` is scheduled: a BARRIER never, a MEASURE only with a duration."""
    return g.kind is not GateKind.BARRIER and (g.kind is not GateKind.MEASURE or measure_duration is not None)


def oracle_map(
    sc: SlicedCircuit,
    spec: ArchitectureSpec,
    placement: Placement,
    errp: ErrorModelParams,
    strategy: str,
    flags: tuple[bool, bool, bool, bool],
    measure_duration: float | None = None,
) -> Schedule:
    """The mapper as it was before its two passes: the timing arithmetic run
    op by op in the ``phase`` closure, one row tuple per op, and the rows
    turned into columns at the end. Return sites come from
    ``_assign_dynamic_returns`` and ``_assign_pair`` as they were before
    the next-partner sweep: free sites rebuilt per layer, each operand's
    next partner bisected from its future interactions, and its position
    looked up from the layer's zones and assignments."""
    sequential, dynamic_return, tunable, swap_returns = flags
    c = sc.circuit
    if not c.is_native:
        raise ValueError("mapper needs a native-basis circuit (run decompose first)")
    if c.num_qubits != spec.n_sites:
        raise ValueError(
            f"circuit has {c.num_qubits} qubits but the architecture "
            f"has {spec.n_sites} sites"
        )
    if placement.n != spec.n_sites:
        raise ValueError(
            f"placement covers {placement.n} qubits, architecture has {spec.n_sites}"
        )
    site_pos = [position(Location.site(s), spec) for s in range(spec.n_sites)]
    zone_pos = [position(Location.zone(z), spec) for z in range(spec.n_sites)]
    two_qubit = [g.is_two_qubit for g in c.gates]
    order: list[str] = []
    shuttles: list[tuple] = []
    gates: list[tuple] = []
    err = [0.0] * spec.n_sites
    # (delta_c, duration) per (velocity, distance); phases repeat few pairs
    memo: dict[tuple[float, float], tuple[float, float]] = {}

    def phase(moves: list[tuple[int, int, int]], start: float, outward: bool) -> float:
        """Shuttle every (qubit, site, zone) move from ``start``, in qubit
        order, at one velocity; return the phase duration."""
        moves = sorted(moves)
        dists = [abs(site_pos[s] - zone_pos[z]) for _, s, z in moves]
        longest = max(dists)
        v = optimal_velocity(longest, errp) if tunable else spec.default_velocity
        for (q, s, z), dist in zip(moves, dists):
            src, dst = (2 * s, 2 * z + 1) if outward else (2 * z + 1, 2 * s)
            known = memo.get((v, dist))
            if known is None:
                known = memo[v, dist] = (phase_error(v, dist, errp), shuttle_time(dist, v))
            dc, dur = known
            shuttles.append((q, src, dst, start, v, dur, dc))
            err[q] += dc
        order.append("s" * len(moves))
        return shuttle_time(longest, v)

    sites: list[int | None] = list(placement.perm)  # None while in a zone
    layers = [(gate_idx,) for gate_idx in range(len(c.gates))] if sequential else sc.layers

    # per-qubit future two-qubit interactions: (layer, partner), layer-sorted
    future: list[list[tuple[int, int]]] = [[] for _ in range(c.num_qubits)]
    if swap_returns:
        for layer_idx, layer in enumerate(layers):
            for gate_idx in layer:
                if two_qubit[gate_idx]:
                    qa, qb = c.gates[gate_idx].qubits
                    future[qa].append((layer_idx, qb))
                    future[qb].append((layer_idx, qa))

    t = 0.0
    for layer_idx, layer in enumerate(layers):
        episodes = []  # (gate_index, gate, zone)
        for gate_idx in layer:
            g = c.gates[gate_idx]
            if not _schedulable(g, measure_duration):
                continue
            if two_qubit[gate_idx]:
                i, j = sites[g.qubits[0]], sites[g.qubits[1]]
                zone = (i + j + 1) // 2 if sequential else max(i, j)
            else:
                zone = sites[g.qubits[0]]
            episodes.append((gate_idx, g, zone))
        if not episodes:
            continue

        # out phase: every operand shuttles to its zone simultaneously
        out_moves = [(q, sites[q], zone) for _, g, zone in episodes for q in g.qubits]
        gate_start = t + phase(out_moves, t, True)
        for q, _, _ in out_moves:
            sites[q] = None

        # gate phase: all gates start together
        max_dur = 0.0
        for gate_idx, g, zone in episodes:
            if g.kind is GateKind.MEASURE:
                g_dur = measure_duration
            else:
                g_dur = spec.t_2q if two_qubit[gate_idx] else spec.t_1q
            gates.append((gate_idx, zone, gate_start, g_dur))
            max_dur = max(max_dur, g_dur)
        order.append("g" * len(episodes))
        ret_start = gate_start + max_dur

        # return phase: pick destination sites, then shuttle simultaneously
        if dynamic_return:
            returns = _assign_dynamic_returns(
                episodes, sites, site_pos, zone_pos, swap_returns, future, layer_idx
            )
        else:
            returns = out_moves
        t = ret_start + phase(returns, ret_start, False)
        for q, s, _ in returns:
            sites[q] = s

    return Schedule(
        strategy=strategy,
        circuit=c,
        arch=spec,
        error_params=errp,
        initial_sites=placement.perm,
        ops=ScheduleOps.from_rows("".join(order), shuttles, gates),
        total_time=t,
        per_qubit_error=tuple(err),
        final_sites=tuple(sites),
    )


def _assign_dynamic_returns(
    episodes,
    sites: list[int | None],
    site_pos: list[float],
    zone_pos: list[float],
    swap_returns: bool,
    future: list[list[tuple[int, int]]],
    layer_idx: int,
) -> list[tuple[int, int, int]]:
    """Assign each zone occupant a return site, zones right to left; the
    moves come back as (qubit, site, zone).

    Every occupant takes the rightmost free site left of its zone. With two
    occupants the default gives the smaller virtual index the rightmost
    site; swap_returns instead matches occupants to the two sites in order
    of their next partner's position, so each returns toward its upcoming
    interaction.
    """
    free = sorted(set(range(len(sites))).difference(sites))
    in_zone = {q: zone for _, g, zone in episodes for q in g.qubits}
    assigned: dict[int, int] = {}

    def current_pos(q: int) -> float:
        if q in assigned:
            return site_pos[assigned[q]]
        if q in in_zone:
            return zone_pos[in_zone[q]]
        return site_pos[sites[q]]

    def next_partner_pos(q: int) -> float | None:
        entries = future[q]
        i = bisect.bisect_right(entries, (layer_idx, float("inf")))
        if i >= len(entries):
            return None
        return current_pos(entries[i][1])

    returns: list[tuple[int, int, int]] = []
    for gate_idx, g, zone in sorted(episodes, key=lambda e: -e[2]):
        # eligible sites sit at positions <= the zone's: site index <= zone index
        cut = bisect.bisect_right(free, zone)
        occupants = list(g.qubits)
        if cut < len(occupants):
            raise RuntimeError(
                f"no free site left of zone {zone} for gate {gate_idx}"
            )
        if len(occupants) == 1:
            chosen = {occupants[0]: free[cut - 1]}
        else:
            s_hi, s_lo = free[cut - 1], free[cut - 2]
            qa, qb = occupants
            chosen = _assign_pair(
                qa, qb, s_hi, s_lo, site_pos, swap_returns, next_partner_pos
            )
        for q, s in chosen.items():
            assigned[q] = s
            free.remove(s)
            returns.append((q, s, zone))
    return returns


def _assign_pair(
    qa: int,
    qb: int,
    s_hi: int,
    s_lo: int,
    site_pos: list[float],
    swap_returns: bool,
    next_partner_pos,
) -> dict[int, int]:
    def default() -> dict[int, int]:
        # arbitrary but fixed: smaller virtual index takes the rightmost site
        if qa < qb:
            return {qa: s_hi, qb: s_lo}
        return {qa: s_lo, qb: s_hi}

    if not swap_returns:
        return default()
    pa = next_partner_pos(qa)
    pb = next_partner_pos(qb)
    if pa is None and pb is None:
        return default()
    pos_hi, pos_lo = site_pos[s_hi], site_pos[s_lo]
    if pa is None or pb is None:
        # the qubit with a future interaction takes its distance-minimizing site
        q_with, p = (qa, pa) if pa is not None else (qb, pb)
        q_other = qb if q_with == qa else qa
        if abs(pos_hi - p) < abs(pos_lo - p):
            return {q_with: s_hi, q_other: s_lo}
        if abs(pos_hi - p) > abs(pos_lo - p):
            return {q_with: s_lo, q_other: s_hi}
        return default()
    if pa == pb:
        return default()
    # order-preserving matching: the qubit whose next partner sits further
    # left takes the left site (minimizes the pair's future travel)
    if pa < pb:
        return {qa: s_lo, qb: s_hi}
    return {qa: s_hi, qb: s_lo}


# The QASM front end as it stood before its regex tokenizer: a character
# scanner building one _Token per token, each carrying its line and column,
# with identifiers and numbers in ASCII as the OpenQASM 2.0 grammar has them.
# parse_qasm must give the same circuits and errors, except for positions
# after a string literal that spans a newline, where this scanner does not
# count the line.
_MAX_NESTING = 100
_DIGITS = "0123456789"

_SYMBOLS = ("->", "(", ")", "[", "]", "{", "}", ",", ";", "+", "-", "*", "/", "==")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'id' | 'num' | 'str' | symbol text
    text: str
    line: int
    col: int



def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise QasmSyntaxError("unterminated string", line, col)
            tokens.append(_Token("str", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isascii() and ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isascii() and text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("id", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            while j < n and (text[j] in _DIGITS or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched is None:
            raise QasmSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append(_Token(matched, matched, line, col))
        col += len(matched)
        i += len(matched)
    return tokens


def _literal(convert, tok: _Token, what: str):
    """``convert(tok.text)``; a malformed literal is a syntax error."""
    try:
        return convert(tok.text)
    except ValueError:
        raise QasmSyntaxError(f"bad {what} {tok.text!r}", tok.line, tok.col) from None


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.qreg: tuple[str, int] | None = None
        self.creg: tuple[str, int] | None = None
        self.gates: list[Gate] = []
        self.depth = 0  # unary minus and parentheses open in _factor

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token(";", ";", 1, 1)
            raise QasmSyntaxError("unexpected end of input", last.line, last.col)
        if expect is not None and tok.kind != expect:
            raise QasmSyntaxError(
                f"expected {expect!r}, got {tok.text!r}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def parse(self) -> Circuit:
        while self._peek() is not None:
            self._statement()
        if self.qreg is None:
            raise QasmSyntaxError("no quantum register declared", 1, 1)
        return Circuit(self.qreg[1], tuple(self.gates))

    def _statement(self) -> None:
        tok = self._next()
        if tok.kind != "id":
            raise QasmSyntaxError(f"expected statement, got {tok.text!r}", tok.line, tok.col)
        name = tok.text
        if name == "OPENQASM":
            version = self._next("num").text
            self._next(";")
            if version != "2.0":
                raise UnsupportedConstructError(f"OPENQASM {version}", tok.line, tok.col)
            return
        if name == "include":
            self._next("str")
            self._next(";")
            return
        if name == "qreg":
            if self.qreg is not None:
                raise UnsupportedConstructError("multiple quantum registers", tok.line, tok.col)
            self.qreg = self._register_decl()
            return
        if name == "creg":
            if self.creg is not None:
                raise UnsupportedConstructError("multiple classical registers", tok.line, tok.col)
            self.creg = self._register_decl()
            return
        if name == "measure":
            self._measure(tok)
            return
        if name == "barrier":
            self._barrier(tok)
            return
        if name in GATE_TABLE:
            self._gate(tok)
            return
        raise UnsupportedConstructError(name, tok.line, tok.col)

    def _register_decl(self) -> tuple[str, int]:
        name = self._next("id").text
        self._next("[")
        size_tok = self._next("num")
        self._next("]")
        self._next(";")
        size = _literal(int, size_tok, "register size")
        if size < 1:
            raise QasmSyntaxError("register size must be >= 1", size_tok.line, size_tok.col)
        return name, size

    def _qubit_operand(self) -> list[int]:
        """One quantum operand: q[i] -> [i]; bare q -> all indices."""
        tok = self._next("id")
        if self.qreg is None:
            raise QasmSyntaxError("quantum register used before declaration", tok.line, tok.col)
        reg_name, reg_size = self.qreg
        if tok.text != reg_name:
            raise QasmSyntaxError(f"unknown register {tok.text!r}", tok.line, tok.col)
        nxt = self._peek()
        if nxt is not None and nxt.kind == "[":
            self._next("[")
            idx_tok = self._next("num")
            self._next("]")
            idx = _literal(int, idx_tok, "qubit index")
            if not 0 <= idx < reg_size:
                raise QasmSyntaxError(
                    f"qubit index {idx} out of range [0, {reg_size})",
                    idx_tok.line,
                    idx_tok.col,
                )
            return [idx]
        return list(range(reg_size))

    def _gate(self, tok: _Token) -> None:
        kind = GATE_TABLE[tok.text]
        angle = None
        if self._peek() is not None and self._peek().kind == "(":
            self._next("(")
            angle = self._expr()
            self._next(")")
        if kind.takes_angle and angle is None:
            raise QasmSyntaxError(f"{tok.text} needs an angle", tok.line, tok.col)
        if not kind.takes_angle and angle is not None:
            raise QasmSyntaxError(f"{tok.text} takes no angle", tok.line, tok.col)
        operands = [self._qubit_operand()]
        while self._peek() is not None and self._peek().kind == ",":
            self._next(",")
            operands.append(self._qubit_operand())
        self._next(";")
        if kind.n_qubits == 2:
            if len(operands) != 2 or any(len(o) != 1 for o in operands):
                raise UnsupportedConstructError(
                    f"register broadcast for {tok.text}", tok.line, tok.col
                )
            self._append(kind, (operands[0][0], operands[1][0]), angle, tok)
        else:
            if len(operands) != 1:
                raise QasmSyntaxError(
                    f"{tok.text} takes one operand", tok.line, tok.col
                )
            for q in operands[0]:
                self._append(kind, (q,), angle, tok)

    def _append(
        self, kind: GateKind, qubits: tuple[int, ...], angle: float | None, tok: _Token
    ) -> None:
        try:
            self.gates.append(Gate(kind, qubits, angle))
        except ValueError as exc:
            raise QasmSyntaxError(str(exc), tok.line, tok.col) from None

    def _measure(self, tok: _Token) -> None:
        qubits = self._qubit_operand()
        self._next("->")
        if self.creg is None:
            raise QasmSyntaxError("measure without classical register", tok.line, tok.col)
        creg_tok = self._next("id")
        if creg_tok.text != self.creg[0]:
            raise QasmSyntaxError(f"unknown register {creg_tok.text!r}", creg_tok.line, creg_tok.col)
        if self._peek() is not None and self._peek().kind == "[":
            self._next("[")
            idx_tok = self._next("num")
            self._next("]")
            if not 0 <= _literal(int, idx_tok, "bit index") < self.creg[1]:
                raise QasmSyntaxError(
                    f"bit index {idx_tok.text} out of range", idx_tok.line, idx_tok.col
                )
            if len(qubits) != 1:
                raise QasmSyntaxError(
                    "register measure needs a register target", tok.line, tok.col
                )
        self._next(";")
        for q in qubits:
            self.gates.append(Gate(GateKind.MEASURE, (q,)))

    def _barrier(self, tok: _Token) -> None:
        qubits: list[int] = []
        qubits.extend(self._qubit_operand())
        while self._peek() is not None and self._peek().kind == ",":
            self._next(",")
            qubits.extend(self._qubit_operand())
        self._next(";")
        self._append(GateKind.BARRIER, tuple(qubits), None, tok)

    # expression grammar: expr := term (('+'|'-') term)*
    #                     term := factor (('*'|'/') factor)*
    #                     factor := '-' factor | num | 'pi' | '(' expr ')'
    def _expr(self) -> float:
        value = self._term()
        while self._peek() is not None and self._peek().kind in ("+", "-"):
            op = self._next().kind
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._factor()
        while self._peek() is not None and self._peek().kind in ("*", "/"):
            op = self._next().kind
            rhs = self._factor()
            if op == "/":
                if rhs == 0:
                    tok = self.tokens[self.pos - 1]
                    raise QasmSyntaxError("division by zero", tok.line, tok.col)
                value = value / rhs
            else:
                value = value * rhs
        return value

    def _factor(self) -> float:
        tok = self._next()
        if tok.kind in ("-", "("):
            # bounded, so deep nesting is a syntax error, not a RecursionError
            if self.depth == _MAX_NESTING:
                raise QasmSyntaxError("expression nested too deeply", tok.line, tok.col)
            self.depth += 1
            if tok.kind == "-":
                value = -self._factor()
            else:
                value = self._expr()
                self._next(")")
            self.depth -= 1
            return value
        if tok.kind == "num":
            return _literal(float, tok, "number")
        if tok.kind == "id" and tok.text == "pi":
            return math.pi
        raise QasmSyntaxError(f"bad expression token {tok.text!r}", tok.line, tok.col)


def oracle_parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset into a Circuit (gates in source order)."""
    return _Parser(_tokenize(text)).parse()
