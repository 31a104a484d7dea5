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

from .circuit import Circuit, Gate, GateKind

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

# One match per token: the blanks and comments before it, then one named
# group. ``bad`` takes the rest of the text from the first character that
# starts no token, so it can only be the last match; ``\Z`` matches the end
# after trailing blanks. Since some alternative always matches, the engine
# never backtracks into the skipped prefix.
_TOKEN = re.compile(
    r"""(?:[ \t\r\n]+|//[^\n]*)*
    (?:(?P<id>[A-Za-z_]\w*)
      |(?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)
      |"(?P<str>[^"]*)"
      |(?P<sym>->|==|[()\[\]{},;+\-*/])
      |(?P<bad>.+)
      |\Z)""",
    re.ASCII | re.DOTALL | re.VERBOSE,
)


def _position(text: str, off: int) -> tuple[int, int]:
    """1-based line and column of offset ``off`` in ``text``."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _tokenize(text: str) -> list[_Tok]:
    """``(kind, text, offset)`` per token, by the one ``_TOKEN`` regex for
    every text. The kind is 'id', 'num', 'str' (text without the quotes,
    offset at the opening one) or, for a symbol, the symbol itself. Any
    character may appear in a comment or a string; outside them, one that
    starts no token, non-ASCII or not, is a syntax error at its position."""
    tokens = [
        (m[k] if k == "sym" else k, m[k], m.start(k) - (k == "str"))
        for m in _TOKEN.finditer(text)
        for k in (m.lastgroup,)
        if k is not None
    ]
    if tokens and tokens[-1][0] == "bad":
        off = tokens[-1][2]
        ch = text[off]
        message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
        raise QasmSyntaxError(message, *_position(text, off))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        # end marker, kind None, placed where the last token starts
        self.tokens.append((None, "", self.tokens[-1][2] if self.tokens else 0))
        self.pos = 0
        self.qreg: tuple[str, int] | None = None
        self.creg: tuple[str, int] | None = None
        self.gates: list[Gate] = []
        self.depth = 0  # unary minus and parentheses open in _factor

    def _at(self, tok: _Tok) -> tuple[int, int]:
        return _position(self.text, tok[2])

    def _peek(self) -> str | None:  # the next token's kind; None at the end
        return self.tokens[self.pos][0]

    def _next(self, expect: str | None = None) -> _Tok:
        tok = self.tokens[self.pos]
        if tok[0] is None:
            raise QasmSyntaxError("unexpected end of input", *self._at(tok))
        if expect is not None and tok[0] != expect:
            raise QasmSyntaxError(f"expected {expect!r}, got {tok[1]!r}", *self._at(tok))
        self.pos += 1
        return tok

    def _literal(self, convert, tok: _Tok, what: str):
        """``convert(tok text)``; a malformed literal is a syntax error."""
        try:
            return convert(tok[1])
        except ValueError:
            raise QasmSyntaxError(f"bad {what} {tok[1]!r}", *self._at(tok)) from None

    def parse(self) -> Circuit:
        while self._peek() is not None:
            self._statement()
        if self.qreg is None:
            raise QasmSyntaxError("no quantum register declared", 1, 1)
        return Circuit(self.qreg[1], tuple(self.gates))

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
            self.pos += 1
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
            self.pos += 1
            angle = self._expr()
            self._next(")")
        if kind.takes_angle and angle is None:
            raise QasmSyntaxError(f"{tok[1]} needs an angle", *self._at(tok))
        if not kind.takes_angle and angle is not None:
            raise QasmSyntaxError(f"{tok[1]} takes no angle", *self._at(tok))
        operands = [self._qubit_operand()]
        while self._peek() == ",":
            self.pos += 1
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
        try:
            self.gates.append(Gate(kind, qubits, angle))
        except ValueError as exc:
            raise QasmSyntaxError(str(exc), *self._at(tok)) from None

    def _measure(self, tok: _Tok) -> None:
        qubits = self._qubit_operand()
        self._next("->")
        if self.creg is None:
            raise QasmSyntaxError("measure without classical register", *self._at(tok))
        creg_tok = self._next("id")
        if creg_tok[1] != self.creg[0]:
            raise QasmSyntaxError(f"unknown register {creg_tok[1]!r}", *self._at(creg_tok))
        if self._peek() == "[":
            self.pos += 1
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
            self.gates.append(Gate(GateKind.MEASURE, (q,)))

    def _barrier(self, tok: _Tok) -> None:
        qubits = self._qubit_operand()
        while self._peek() == ",":
            self.pos += 1
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
                    raise QasmSyntaxError(
                        "division by zero", *self._at(self.tokens[self.pos - 1])
                    )
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
    return _Parser(text).parse()


def export_qasm(c: Circuit) -> str:
    """Emit a circuit as OpenQASM 2.0 text; parse_qasm round-trips it."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    if any(g.kind is GateKind.MEASURE for g in c.gates):
        lines.append(f"creg c[{c.num_qubits}];")
    for g in c.gates:
        ops = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind is GateKind.MEASURE:
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.qubits[0]}];")
        elif g.kind is GateKind.BARRIER:
            lines.append(f"barrier {ops};")
        elif g.kind.takes_angle:
            lines.append(f"{g.kind.value}({g.angle!r}) {ops};")
        else:
            lines.append(f"{g.kind.value} {ops};")
    return "\n".join(lines) + "\n"
