"""OpenQASM 2.0 subset: parser and exporter.

Accepted input: one quantum register, at most one classical register, the
gates {x, y, z, h, s, sdg, t, tdg, rx, ry, rz, cx, cz, swap}, measure and
barrier. Bare-register operands broadcast for single-qubit gates, measure
and barrier. Angle expressions allow pi, numeric literals, + - * /, unary
minus and parentheses. Anything else raises an unsupported-construct error
naming the construct; malformed text raises a syntax error. Both carry the
line and column of the offending token, counted from the text when the error
is raised.

Tokens are read as the OpenQASM 2.0 grammar writes them (Cross et al. 2017,
arXiv:1707.03429): identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and numbers
use the ASCII digits. Any character may appear in a ``//`` comment or a
string literal; any other character the grammar lacks, non-ASCII included,
is a syntax error.
"""
from __future__ import annotations

import math
import re

import numpy as np

from .circuit import _CODE, KINDS, Circuit, GateKind, _gate_error

# gate statements by QASM name; measure and barrier are statements of their own
GATE_TABLE = {
    k.value: k for k in GateKind if k not in (GateKind.MEASURE, GateKind.BARRIER)
}


class QasmError(Exception):
    """Base for QASM front-end failures; carries line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class QasmSyntaxError(QasmError):
    pass


class UnsupportedConstructError(QasmError):
    def __init__(self, construct: str, line: int, col: int):
        super().__init__(f"unsupported construct '{construct}'", line, col)
        self.construct = construct


_MAX_NESTING = 100  # of unary minus and parentheses in one angle expression

_Tok = tuple[str, str, int]  # kind, text, offset

# The blanks and comments before a token or a statement. A comment ends
# only at a line end or at the end of the text, so a regex that fails after
# it cannot backtrack into the comment and match text written there.
_SKIP = r"(?:[ \t\r\n]+|//[^\n]*(?![^\n]))*"

# One match per token: the blanks and comments before it, then one named
# group. ``bad`` takes the rest of the text from the first character that
# starts no token, so it can only be the last match; ``\Z`` matches the end
# after trailing blanks.
_TOKEN = re.compile(
    _SKIP
    + r"""(?:(?P<id>[A-Za-z_]\w*)
      |(?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)
      |"(?P<str>[^"]*)"
      |(?P<sym>->|==|[()\[\]{},;+\-*/])
      |(?P<bad>.+)
      |\Z)""",
    re.ASCII | re.DOTALL | re.VERBOSE,
)

# The first thing tried on every statement: one gate on one or two indexed
# operands, with an optional angle that is a number or a negated one, in
# ``_TOKEN``'s tokens. Every name, number and index here ends where its token
# does (``\b``, or a character its token cannot hold), so a match reads the
# tokens the token parser would. A statement it does not match, or one that
# ``_Parser._gate_statement`` declines, goes to the token parser.
_GATE_STATEMENT = re.compile(
    _SKIP
    + r"""([a-z]+)\b[ \t]*
    (?:\([ \t]*(-?)[ \t]*((?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)[ \t]*\)[ \t]*)?
    ([A-Za-z_]\w*)[ \t]*\[[ \t]*(\d+)[ \t]*\]
    (?:[ \t]*,[ \t]*([A-Za-z_]\w*)[ \t]*\[[ \t]*(\d+)[ \t]*\])?
    [ \t]*;""",
    re.ASCII | re.VERBOSE,
)


def _position(text: str, off: int) -> tuple[int, int]:
    """1-based line and column of offset ``off`` in ``text``."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _check_characters(text: str) -> None:
    """Raise for the first character of ``text`` that starts no token, as
    ``_TOKEN`` reads the whole text: any character may appear in a comment
    or a string; outside them, one that starts no token, non-ASCII or not,
    is a syntax error at its position, whatever else is wrong."""
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            off = m.start("bad")
            message = "unterminated string" if text[off] == '"' else f"unexpected character {text[off]!r}"
            raise QasmSyntaxError(message, *_position(text, off))


class _Parser:
    """Reads statements into gate columns. ``_GATE_STATEMENT`` takes the
    plain gate statements; the token parser reads every other statement
    from the offset where it starts, one ``_TOKEN`` match at a time."""

    def __init__(self, text: str):
        self.text = text
        self.qreg: tuple[str, int] | None = None
        self.creg: tuple[str, int] | None = None
        # the columns: kind codes, operand offsets, operands, angles
        self.kind: list[int] = []
        self.offsets: list[int] = [0]
        self.qubits: list[int] = []
        self.angle: list[float] = []
        self.depth = 0  # unary minus and parentheses open in _factor
        # the token parser's state: the next token and its end, and the
        # last token read, where the end of input is placed
        self.tok: _Tok = (None, "", 0)
        self.tok_end = 0
        self.prev: _Tok = (None, "", 0)
        self.prev_end = 0

    def _at(self, tok: _Tok) -> tuple[int, int]:
        return _position(self.text, tok[2])

    def _scan(self, off: int) -> None:
        """Make the token at ``off`` the next one."""
        m = _TOKEN.match(self.text, off)
        k = m.lastgroup
        if k is None:  # end marker, kind None, placed where the last token starts
            self.tok = (None, "", self.prev[2])
        else:
            self.tok = (m[k] if k == "sym" else k, m[k], m.start(k) - (k == "str"))
        self.tok_end = m.end()

    def _peek(self) -> str | None:  # the next token's kind; None at the end
        return self.tok[0]

    def _next(self, expect: str | None = None) -> _Tok:
        tok = self.tok
        if tok[0] is None:
            raise QasmSyntaxError("unexpected end of input", *self._at(tok))
        if expect is not None and tok[0] != expect:
            raise QasmSyntaxError(f"expected {expect!r}, got {tok[1]!r}", *self._at(tok))
        self.prev, self.prev_end = tok, self.tok_end
        self._scan(self.tok_end)
        return tok

    def _literal(self, convert, tok: _Tok, what: str):
        """``convert(tok text)``; a malformed literal is a syntax error."""
        try:
            return convert(tok[1])
        except ValueError:
            raise QasmSyntaxError(f"bad {what} {tok[1]!r}", *self._at(tok)) from None

    def parse(self) -> Circuit:
        text, gate_statement = self.text, _GATE_STATEMENT.match
        off = 0
        while True:
            m = gate_statement(text, off)
            if m is not None and self._gate_statement(*m.groups()):
                off = m.end()
                continue
            self._scan(off)
            if self._peek() is None:
                break
            self._statement()
            off = self.prev_end
        if self.qreg is None:
            raise QasmSyntaxError("no quantum register declared", 1, 1)
        return Circuit._from_columns(
            self.qreg[1],
            np.array(self.kind, np.int8),
            np.array(self.offsets, np.int64),
            np.array(self.qubits, np.int64),
            np.array(self.angle, np.float64),
        )

    def _gate_statement(self, name, minus, number, reg, a, reg_b, b) -> bool:
        """Append the gate a ``_GATE_STATEMENT`` match reads, if the token
        parser would read the same gate from it; else append nothing and
        return False."""
        kind = GATE_TABLE.get(name)
        if kind is None or self.qreg is None or (number is None) == kind.takes_angle:
            return False
        reg_name, size = self.qreg
        if reg != reg_name or (b is None) != (kind.n_qubits == 1) or (b is not None and reg_b != reg_name):
            return False
        try:
            qubits = [int(a)] if b is None else [int(a), int(b)]
            angle = math.nan if number is None else -float(number) if minus else float(number)
        except ValueError:  # a literal the token parser reports
            return False
        if max(qubits) >= size or len(set(qubits)) != len(qubits):
            return False  # out of range or duplicate: the token parser reports it
        if number is not None and not math.isfinite(angle):
            return False
        self._push(kind, qubits, angle)
        return True

    def _push(self, kind: GateKind, qubits: list[int], angle: float) -> None:
        self.kind.append(_CODE[kind])
        self.qubits += qubits
        self.offsets.append(len(self.qubits))
        self.angle.append(angle)

    def _statement(self) -> None:
        tok = self._next()
        name = tok[1]
        if tok[0] != "id":
            raise QasmSyntaxError(f"expected statement, got {name!r}", *self._at(tok))
        kind = GATE_TABLE.get(name)
        if kind is not None:
            self._gate(kind, tok)
        elif name == "OPENQASM":
            version = self._next("num")[1]
            self._next(";")
            if version != "2.0":
                raise UnsupportedConstructError(f"OPENQASM {version}", *self._at(tok))
        elif name == "include":
            self._next("str")
            self._next(";")
        elif name == "qreg":
            if self.qreg is not None:
                raise UnsupportedConstructError("multiple quantum registers", *self._at(tok))
            self.qreg = self._register_decl()
        elif name == "creg":
            if self.creg is not None:
                raise UnsupportedConstructError("multiple classical registers", *self._at(tok))
            self.creg = self._register_decl()
        elif name == "measure":
            self._measure(tok)
        elif name == "barrier":
            self._barrier(tok)
        else:
            raise UnsupportedConstructError(name, *self._at(tok))

    def _register_decl(self) -> tuple[str, int]:
        name = self._next("id")[1]
        self._next("[")
        size_tok = self._next("num")
        self._next("]")
        self._next(";")
        size = self._literal(int, size_tok, "register size")
        if size < 1:
            raise QasmSyntaxError("register size must be >= 1", *self._at(size_tok))
        return name, size

    def _qubit_operand(self) -> list[int]:
        """One quantum operand: q[i] -> [i]; bare q -> all indices."""
        tok = self._next("id")
        if self.qreg is None:
            raise QasmSyntaxError("quantum register used before declaration", *self._at(tok))
        reg_name, reg_size = self.qreg
        if tok[1] != reg_name:
            raise QasmSyntaxError(f"unknown register {tok[1]!r}", *self._at(tok))
        if self._peek() == "[":
            self._next()
            idx_tok = self._next("num")
            self._next("]")
            idx = self._literal(int, idx_tok, "qubit index")
            if not 0 <= idx < reg_size:
                raise QasmSyntaxError(
                    f"qubit index {idx} out of range [0, {reg_size})", *self._at(idx_tok)
                )
            return [idx]
        return list(range(reg_size))

    def _gate(self, kind: GateKind, tok: _Tok) -> None:
        angle = None
        if self._peek() == "(":
            self._next()
            angle = self._expr()
            self._next(")")
        if kind.takes_angle and angle is None:
            raise QasmSyntaxError(f"{tok[1]} needs an angle", *self._at(tok))
        if not kind.takes_angle and angle is not None:
            raise QasmSyntaxError(f"{tok[1]} takes no angle", *self._at(tok))
        operands = [self._qubit_operand()]
        while self._peek() == ",":
            self._next()
            operands.append(self._qubit_operand())
        self._next(";")
        if kind.n_qubits == 2:
            if len(operands) != 2 or any(len(o) != 1 for o in operands):
                raise UnsupportedConstructError(
                    f"register broadcast for {tok[1]}", *self._at(tok)
                )
            self._append(kind, (operands[0][0], operands[1][0]), angle, tok)
        else:
            if len(operands) != 1:
                raise QasmSyntaxError(f"{tok[1]} takes one operand", *self._at(tok))
            for q in operands[0]:
                self._append(kind, (q,), angle, tok)

    def _append(
        self, kind: GateKind, qubits: tuple[int, ...], angle: float | None, tok: _Tok
    ) -> None:
        message = _gate_error(kind, qubits, angle)
        if message is not None:
            raise QasmSyntaxError(message, *self._at(tok))
        self._push(kind, list(qubits), math.nan if angle is None else angle)

    def _measure(self, tok: _Tok) -> None:
        qubits = self._qubit_operand()
        self._next("->")
        if self.creg is None:
            raise QasmSyntaxError("measure without classical register", *self._at(tok))
        creg_tok = self._next("id")
        if creg_tok[1] != self.creg[0]:
            raise QasmSyntaxError(f"unknown register {creg_tok[1]!r}", *self._at(creg_tok))
        if self._peek() == "[":
            self._next()
            idx_tok = self._next("num")
            self._next("]")
            if not 0 <= self._literal(int, idx_tok, "bit index") < self.creg[1]:
                raise QasmSyntaxError(
                    f"bit index {idx_tok[1]} out of range", *self._at(idx_tok)
                )
            if len(qubits) != 1:
                raise QasmSyntaxError(
                    "register measure needs a register target", *self._at(tok)
                )
        self._next(";")
        for q in qubits:
            self._push(GateKind.MEASURE, [q], math.nan)

    def _barrier(self, tok: _Tok) -> None:
        qubits = self._qubit_operand()
        while self._peek() == ",":
            self._next()
            qubits.extend(self._qubit_operand())
        self._next(";")
        self._append(GateKind.BARRIER, tuple(qubits), None, tok)

    # expression grammar: expr := term (('+'|'-') term)*
    #                     term := factor (('*'|'/') factor)*
    #                     factor := '-' factor | num | 'pi' | '(' expr ')'
    def _expr(self) -> float:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()[0]
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self._next()[0]
            rhs = self._factor()
            if op == "/":
                if rhs == 0:
                    raise QasmSyntaxError("division by zero", *self._at(self.prev))
                value = value / rhs
            else:
                value = value * rhs
        return value

    def _factor(self) -> float:
        tok = self._next()
        kind = tok[0]
        if kind == "num":
            return self._literal(float, tok, "number")
        if kind in ("-", "("):
            # bounded, so deep nesting is a syntax error, not a RecursionError
            if self.depth == _MAX_NESTING:
                raise QasmSyntaxError("expression nested too deeply", *self._at(tok))
            self.depth += 1
            if kind == "-":
                value = -self._factor()
            else:
                value = self._expr()
                self._next(")")
            self.depth -= 1
            return value
        if kind == "id" and tok[1] == "pi":
            return math.pi
        raise QasmSyntaxError(f"bad expression token {tok[1]!r}", *self._at(tok))


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset into a Circuit (gates in source order)."""
    try:
        return _Parser(text).parse()
    except QasmError:
        _check_characters(text)  # a character no token starts comes first
        raise


def export_qasm(c: Circuit) -> str:
    """Emit a circuit as OpenQASM 2.0 text; parse_qasm round-trips it."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    if c.measure.any():
        lines.append(f"creg c[{c.num_qubits}];")
    offsets, qubits = c.offsets.tolist(), c.qubits.tolist()
    for code, a, b, angle in zip(c.kind.tolist(), offsets, offsets[1:], c.angle.tolist()):
        kind = KINDS[code]
        ops = ",".join(f"q[{q}]" for q in qubits[a:b])
        if kind is GateKind.MEASURE:
            lines.append(f"measure q[{qubits[a]}] -> c[{qubits[a]}];")
        elif kind is GateKind.BARRIER:
            lines.append(f"barrier {ops};")
        elif kind.takes_angle:
            lines.append(f"{kind.value}({angle!r}) {ops};")
        else:
            lines.append(f"{kind.value} {ops};")
    return "\n".join(lines) + "\n"
