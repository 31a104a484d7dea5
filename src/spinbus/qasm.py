"""OpenQASM 2.0 subset: parser and exporter.

Accepted input: one quantum register, at most one classical register, the
gates {x, y, z, h, s, sdg, t, tdg, rx, ry, rz, cx, cz, swap}, measure and
barrier. Bare-register operands broadcast for single-qubit gates, measure
and barrier. Angle expressions allow pi, numeric literals, + - * /, unary
minus and parentheses. Anything else raises an unsupported-construct error
naming the construct; malformed text raises a syntax error. Both carry the
source line and column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind

GATE_TABLE = {
    "x": GateKind.X,
    "y": GateKind.Y,
    "z": GateKind.Z,
    "h": GateKind.H,
    "s": GateKind.S,
    "sdg": GateKind.SDG,
    "t": GateKind.T,
    "tdg": GateKind.TDG,
    "rx": GateKind.RX,
    "ry": GateKind.RY,
    "rz": GateKind.RZ,
    "cx": GateKind.CX,
    "cz": GateKind.CZ,
    "swap": GateKind.SWAP,
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


@dataclass(frozen=True)
class _Token:
    kind: str  # 'id' | 'num' | 'str' | symbol text
    text: str
    line: int
    col: int


_MAX_NESTING = 100  # of unary minus and parentheses in one angle expression

_SYMBOLS = ("->", "(", ")", "[", "]", "{", "}", ",", ";", "+", "-", "*", "/", "==")


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
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("id", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
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


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset into a Circuit (gates in source order)."""
    return _Parser(_tokenize(text)).parse()


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
