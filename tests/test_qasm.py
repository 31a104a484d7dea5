import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbus.benchgen import FAMILIES, BenchmarkSpec, generate
from spinbus.circuit import Circuit, Gate, GateKind
from spinbus.qasm import (
    _MAX_NESTING,
    GATE_TABLE,
    QasmError,
    QasmSyntaxError,
    UnsupportedConstructError,
    export_qasm,
    parse_qasm,
)

from oracles import oracle_parse_qasm


def test_minimal_circuit():
    c = parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1];")
    assert c.num_qubits == 2
    assert c.gates == (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1)))


def test_rotation_with_pi_expression():
    c = parse_qasm("qreg q[1]; rz(pi/2) q[0];")
    assert c.gates == (Gate(GateKind.RZ, (0,), math.pi / 2),)


def test_unsupported_gate_named():
    with pytest.raises(UnsupportedConstructError) as info:
        parse_qasm("qreg q[2]; cswap q[0],q[1];")
    assert info.value.construct == "cswap"


def test_full_header_accepted():
    text = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
x q[0];
sdg q[1];
t q[2];
barrier q[0],q[1];
measure q[0] -> c[0];
"""
    c = parse_qasm(text)
    kinds = [g.kind for g in c.gates]
    assert kinds == [
        GateKind.X,
        GateKind.SDG,
        GateKind.T,
        GateKind.BARRIER,
        GateKind.MEASURE,
    ]
    assert c.gates[3].qubits == (0, 1)


def test_broadcast_forms():
    c = parse_qasm("qreg q[3]; creg c[3]; h q; barrier q; measure q -> c;")
    kinds = [g.kind for g in c.gates]
    assert kinds[:3] == [GateKind.H] * 3
    assert kinds[3] == GateKind.BARRIER and c.gates[3].qubits == (0, 1, 2)
    assert kinds[4:] == [GateKind.MEASURE] * 3


def test_expression_grammar():
    c = parse_qasm(
        "qreg q[1]; rx(-pi/4) q[0]; ry(2*pi/8) q[0]; rz(0.5e-2) q[0]; rx(3*(1+1)) q[0];"
    )
    angles = [g.angle for g in c.gates]
    assert angles == [-math.pi / 4, 2 * math.pi / 8, 0.005, 6.0]


def test_syntax_error_carries_position():
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm("qreg q[2];\nh q[0]\ncx q[0],q[1];")
    # the missing ';' is discovered at 'cx' on line 3
    assert info.value.line == 3
    assert info.value.col == 1


@pytest.mark.parametrize(
    "text, line, col",
    [
        ('include "a\nb"; @', 2, 5),
        ('include "a\nb";\nqreg q[2];\nh q[3];', 4, 5),
        ('include "\u00e9\nb"; @', 2, 5),  # non-ASCII inside a string
        ('qreg q[1];\nh "x";', 2, 3),  # a string's position is its opening quote
        ('include "a"', 1, 9),  # end of input, at the last token
    ],
)
def test_error_position(text, line, col):
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm(text)
    assert (info.value.line, info.value.col) == (line, col)


def test_index_out_of_range_reported():
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm("qreg q[2]; h q[5];")
    assert "out of range" in str(info.value)


def test_openqasm3_rejected():
    with pytest.raises(UnsupportedConstructError):
        parse_qasm("OPENQASM 3.0; qreg q[2];")


def test_user_defined_gate_rejected():
    with pytest.raises(UnsupportedConstructError) as info:
        parse_qasm("qreg q[2]; gate foo a { h a; }")
    assert info.value.construct == "gate"


def test_conditional_rejected():
    with pytest.raises(UnsupportedConstructError):
        parse_qasm("qreg q[1]; creg c[1]; if (c==1) x q[0];")


def test_second_qreg_rejected():
    with pytest.raises(UnsupportedConstructError):
        parse_qasm("qreg q[2]; qreg r[2];")


def test_two_qubit_register_broadcast_rejected():
    with pytest.raises(UnsupportedConstructError):
        parse_qasm("qreg q[2]; cx q,q;")


def test_measure_without_creg_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; measure q[0] -> c[0];")


def test_no_qreg_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("h q[0];")


def test_comments_ignored():
    c = parse_qasm("// header\nqreg q[1]; // decl\nh q[0]; // gate\n")
    assert len(c.gates) == 1


def test_export_round_trip_handwritten():
    c = Circuit(
        3,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.RY, (1,), -1.25e-3),
            Gate(GateKind.SWAP, (0, 2)),
            Gate(GateKind.BARRIER, (0, 1, 2)),
            Gate(GateKind.MEASURE, (2,)),
        ),
    )
    assert parse_qasm(export_qasm(c)).gates == c.gates


@pytest.mark.parametrize("angle", [np.float64(0.5), np.float32(0.1), 3], ids=lambda a: type(a).__name__)
def test_export_round_trip_non_float_angle(angle):
    # a numpy angle was once written as rx(np.float64(0.5)), which the
    # parser rejects; Gate now stores every angle as a float
    c = Circuit(1, (Gate(GateKind.RX, (0,), angle),))
    assert type(c.gates[0].angle) is float
    assert c.gates[0].angle == float(angle)
    assert parse_qasm(export_qasm(c)).gates == c.gates


@pytest.mark.parametrize("family", FAMILIES)
def test_export_round_trip_generated(family):
    c = generate(BenchmarkSpec(family=family, n=5, seed=9))
    back = parse_qasm(export_qasm(c))
    assert back.num_qubits == c.num_qubits
    assert back.gates == c.gates


@pytest.mark.parametrize(
    "text",
    [
        "qreg q[2]; h q[0.];",
        "qreg q[2]; h q[.1];",
        "qreg q[2]; h q[1e0];",
        "qreg q[2]; rz(0..3) q[0];",
        "qreg q[2]; creg c[2]; measure q[0] -> c[0.5];",
    ],
)
def test_malformed_numeric_literal_is_syntax_error(text):
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm(text)
    assert "bad " in str(info.value)


# identifiers and numbers are ASCII, as in the OpenQASM 2.0 grammar: a letter
# or digit outside ASCII starts no token
@pytest.mark.parametrize(
    "text, ch, col",
    [
        ("qreg \u00e9[2]; h \u00e9[0];", "\u00e9", 6),
        ("qreg q[\u0663];", "\u0663", 8),  # ARABIC-INDIC DIGIT THREE
        ("qreg q[2]; rz(\u0663.\u0665) q[0];", "\u0663", 15),
        ("qreg q[\u00b2];", "\u00b2", 8),  # a digit to str.isdigit
    ],
)
def test_non_ascii_letter_or_digit_is_unexpected(text, ch, col):
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm(text)
    assert str(info.value) == f"line 1, col {col}: unexpected character {ch!r}"


def test_non_ascii_in_comment_and_string_is_skipped():
    text = 'OPENQASM 2.0;\ninclude "qelib1-{}.inc"; // {}\nqreg q[2]; h q[0]; cx q[0],q[1];\n'
    assert parse_qasm(text.format("\u00e9", "caf\u00e9")) == parse_qasm(text.format("e", "cafe"))


def test_deep_nesting_is_syntax_error():
    for opener in ("(", "-"):
        closer = ")" if opener == "(" else ""
        deep = "qreg q[1]; rz(" + opener * 3000 + "1" + closer * 3000 + ") q[0];"
        with pytest.raises(QasmSyntaxError, match="nested too deeply"):
            parse_qasm(deep)
    # realistic nesting still parses
    assert parse_qasm("qreg q[1]; rz(" + "(" * 50 + "-1" + ")" * 50 + ") q[0];").gates[0].angle == -1.0


# numeric literals as the tokenizer reads them: digits and dots with an
# optional exponent, plus a few that only look numeric
_LITERALS = st.from_regex(r"[0-9.]{1,5}([eE][+-]?[0-9]{0,3})?", fullmatch=True) | st.sampled_from(
    ["\u00b2", "\u0663", "1e999", "9" * 5000]
)
_STATEMENTS = st.one_of(
    st.builds("h q[{}];".format, _LITERALS),
    st.builds("rz({}) q[0];".format, _LITERALS),
    st.builds("rx(-({})*pi/{}) q[1];".format, _LITERALS, _LITERALS),
    st.builds("measure q[0] -> c[{}];".format, _LITERALS),
    st.builds("cx q[{}],q[{}];".format, _LITERALS, _LITERALS),
    st.text(alphabet="qch[](),;-+*/.0123456789eE pi->", max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(max_size=60),
        st.lists(_STATEMENTS, max_size=6).map(
            lambda body: "OPENQASM 2.0; qreg q[3]; creg c[3]; " + " ".join(body)
        ),
    )
)
def test_parse_raises_only_qasm_errors(text):
    try:
        parse_qasm(text)
    except QasmError:
        pass


def _outcome(parse, text):
    """The circuit, or the error's type, message, line, column and construct."""
    try:
        return parse(text)
    except QasmError as exc:
        message = str(exc).partition(": ")[2]
        return type(exc), message, exc.line, exc.col, getattr(exc, "construct", None)


def _offset(text, line, col):
    return sum(len(s) + 1 for s in text.split("\n")[: line - 1]) + col - 1


# comments and string literals, found in the order the tokenizer meets them
_SKIPPED = re.compile(r'//[^\n]*|"[^"]*"')

_FREE_TEXT = st.lists(
    st.sampled_from(
        list("qch[](),;-+*/.0123456789eE pi->\"\t\r\n\u00e9\u00b2\u0663\u00bd\u00a0")
        + ["//", "qreg q[3];", "creg c[3];", "include", "measure", "barrier", "OPENQASM 2.0;"]
    ),
    max_size=40,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        _FREE_TEXT,
        # a statement may be commented out, and a comment runs to the line end
        st.lists(st.one_of(_STATEMENTS, _STATEMENTS.map("// {}".format), _FREE_TEXT), max_size=6).map(
            lambda body: "OPENQASM 2.0; qreg q[3]; creg c[3]; " + " ".join(body)
        ),
        # the same statements with non-ASCII text in a trailing comment
        st.lists(_STATEMENTS, max_size=6).map(
            lambda body: "OPENQASM 2.0; qreg q[3]; creg c[3]; " + " ".join(body) + "//\u00e9"
        ),
    )
)
@example("OPENQASM 2.0; qreg q[3]; creg c[3]; // h q[0];")
def test_parse_matches_oracle(text):
    expected, got = _outcome(oracle_parse_qasm, text), _outcome(parse_qasm, text)
    flat = _SKIPPED.sub(lambda m: m[0].replace("\n", " ") if m[0][0] == '"' else m[0], text)
    if flat == text or isinstance(expected, Circuit):
        assert got == expected
        return
    # A string literal spans a newline, which the oracle does not count:
    # the error is the same, and its position is where the oracle puts it
    # in the text with those newlines made blanks.
    assert (got[0], got[1], got[4]) == (expected[0], expected[1], expected[4])
    flat_error = _outcome(oracle_parse_qasm, flat)
    assert _offset(text, *got[2:4]) == _offset(flat, *flat_error[2:4])


@pytest.mark.parametrize(
    "text",
    [
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n// x q[1];\n",
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n// t q[1];\nmeasure q -> c;\n",
        "OPENQASM 2.0;\nqreg q[2];\n// h q[1];\nrz(pi/2) q[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\nbarrier q; // then h q[1];\nh q;\n",
        "OPENQASM 2.0; qreg q[3]; creg c[3]; // h q[0];",
        'OPENQASM 2.0;\r\ninclude "qelib1.inc";\r\nqreg q[3];\r\n// broadcast, then an expression angle\r\n'
        "// x q[2];\r\nh q;\r\nrz(-(pi/4)*2) q[1];\r\n",
    ],
    ids=["last-line", "before-measure", "before-rz-expression", "after-barrier", "trailing", "crlf"],
)
def test_gate_in_a_comment_is_not_compiled(text):
    # the statement regex once backtracked into a comment before a statement
    # it could not take, and read the gate written in the comment
    assert _outcome(parse_qasm, text) == _outcome(oracle_parse_qasm, text)


def test_bit_index_equal_to_the_register_size_is_out_of_range():
    text = "OPENQASM 2.0; qreg q[2]; creg c[2]; measure q[0] -> c[{}];"
    with pytest.raises(QasmSyntaxError, match="bit index 2 out of range"):
        parse_qasm(text.format(2))
    for index in (1, 2):
        assert _outcome(parse_qasm, text.format(index)) == _outcome(oracle_parse_qasm, text.format(index))
    assert parse_qasm(text.format(1)).gates[0].qubits == (0,)


def test_nesting_bound_after_a_closed_sibling():
    # a closed sub-expression gives its depth back, one level per close, so
    # the next one may nest to the bound and no deeper
    def text(depth):
        return "qreg q[1]; rz((1)+" + "(" * depth + "1" + ")" * depth + ") q[0];"

    assert parse_qasm(text(_MAX_NESTING)).gates[0].angle == 2.0
    with pytest.raises(QasmSyntaxError, match="expression nested too deeply"):
        parse_qasm(text(_MAX_NESTING + 1))
    for depth in (_MAX_NESTING, _MAX_NESTING + 1):
        assert _outcome(parse_qasm, text(depth)) == _outcome(oracle_parse_qasm, text(depth))


# gate statements in the shapes the parser's statement regex takes, and in
# near misses it must leave to the token parser: other names, spacing, signs,
# literals, registers and operand counts
_GAP = st.sampled_from(["", " ", "\t", "  ", "\n", "\r\n", " // c\n"])
_NAMES = st.sampled_from(sorted(GATE_TABLE) * 2 + ["measure", "barrier", "qreg", "hq", "H", "rx2", "_x", "pi"])
_ANGLES = ["(1.5)", "(-2)", "( - .5 )", "(-0)", "(1e-3)", "(1E+2)", "(1.)", "(0)", "(7)", "(-1e400)"]
_BAD_ANGLES = ["", "(1.2.3)", "(pi)", "(--1)", "(+1)", "(1 2)", "(1e)", "(0x1)", "(1)x", "()"]
_OPERANDS = ["q[0]", "q[1]", "q[ 2 ]", "q[01]", "q [1]", "q[\t2]"]
_BAD_OPERANDS = ["q[3]", "q[1.0]", "q[1e0]", "q", "r[0]", "q[]", "q[1 1]"]


@st.composite
def _gate_statement(draw):
    """One statement: half of them have the name's angle and operand count."""
    gap = lambda: draw(_GAP)  # noqa: E731
    name = draw(_NAMES)
    kind = GATE_TABLE.get(name)
    if draw(st.booleans()):
        angle = draw(st.sampled_from(_ANGLES)) if kind is not None and kind.takes_angle else ""
        count = 1 if kind is None else kind.n_qubits
        operands = [draw(st.sampled_from(_OPERANDS)) for _ in range(count)]
        end = ";"
    else:
        angle = draw(st.sampled_from(_ANGLES + _BAD_ANGLES))
        operands = [draw(st.sampled_from(_OPERANDS + _BAD_OPERANDS)) for _ in range(draw(st.integers(0, 3)))]
        end = draw(st.sampled_from([";", "", ",;", "; ;"]))
    return gap() + name + gap() + angle + gap() + (gap() + "," + gap()).join(operands) + gap() + end


@settings(max_examples=1000, deadline=None)
@given(st.lists(_gate_statement(), min_size=1, max_size=3), st.sampled_from(["qreg q[3];"] * 4 + ["qreg h[3];", ""]))
def test_gate_statements_match_oracle(body, header):
    text = header + " ".join(body)
    assert _outcome(parse_qasm, text) == _outcome(oracle_parse_qasm, text)


@pytest.mark.parametrize("name", sorted(set(_NAMES.elements)))
def test_every_gate_statement_shape_matches_oracle(name):
    pairs = itertools.product(["q[0]", "q[ 2 ]", "q[3]", "r[0]"], repeat=2)
    operand_lists = [()] + [(o,) for o in _OPERANDS + _BAD_OPERANDS] + list(pairs)
    for angle, operands, gap in itertools.product(_ANGLES + _BAD_ANGLES, operand_lists, ("", " ")):
        text = f"qreg q[3]; {name}{angle}{gap}{','.join(operands)};"
        assert _outcome(parse_qasm, text) == _outcome(oracle_parse_qasm, text), text
