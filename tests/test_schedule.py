import collections.abc
import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbus.architecture import ArchitectureSpec
from spinbus.circuit import Circuit, decompose, slice_circuit
from spinbus.error_model import ErrorModelParams
from spinbus.benchgen import FAMILIES, BenchmarkSpec, generate
from spinbus.mapper import STRATEGIES, map_strategy
from spinbus.metrics import summarize
from spinbus.placement import (
    Placement,
    build_interaction_graph,
    random_placement,
    spectral_placement,
)
from spinbus.schedule import (
    GateOp, Schedule, ScheduleOps, ShuttleOp, _ns_json, _ns_texts, schedule_from_json, schedule_to_json,
)
from spinbus.validate import validate_schedule
from oracles import oracle_schedule_to_json, oracle_summary_counts
from schedule_corpus import _drop, _mutation_corpus, _nth, _replace_op, _valid_schedules, arch, cz, h, run
from validator_oracle import oracle_validate_schedule


def _ghz4_parallel():
    """A small valid schedule and a fresh copy of its JSON document."""
    sc = slice_circuit(decompose(generate(BenchmarkSpec(family="ghz", n=4))))
    s = map_strategy("parallel", sc, arch(4), Placement.identity(4), ErrorModelParams())
    return s, json.loads(schedule_to_json(s))


def _index_paths(doc):
    """Key paths to every index field of a schedule document."""
    paths = [(key, i) for key in ("placement", "final_sites") for i in range(len(doc[key]))]
    for k, op in enumerate(doc["ops"]):
        keys = (("q",), ("from", "idx"), ("to", "idx")) if "q" in op else (("gate",), ("zone",))
        paths += [("ops", k, *key) for key in keys]
    return paths


def _change_index(doc, path, change):
    node = functools.reduce(lambda parent, key: parent[key], path[:-1], doc)
    node[path[-1]] = change(node[path[-1]])


def _json_paths(node, path=()):
    """Key paths to every value of a JSON document, the root's ``()`` first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, (*path, key))


def _json_type(value):
    """A value's JSON type: null, boolean, number, string, array or object."""
    return next(t for t in (type(None), bool, (int, float), str, list, dict) if isinstance(value, t))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["idx", "kind", "q", "gate", "n_sites"]) | st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestSerialization:
    def test_round_trip(self, errp):
        c = decompose(generate(BenchmarkSpec(family="dj", n=6, seed=0)))
        s = run("swap_return", c, 6, errp)
        text = schedule_to_json(s)
        back = schedule_from_json(text, circuit=s.circuit)
        assert back.strategy == s.strategy
        assert back.initial_sites == s.initial_sites
        assert back.final_sites == s.final_sites
        assert len(back.ops) == len(s.ops)
        assert back.total_time == pytest.approx(s.total_time, abs=1e-12)
        for got, want in zip(back.ops, s.ops):
            assert type(got) is type(want)
            assert got.start == pytest.approx(want.start, abs=1e-12)

    def test_reload_with_non_default_parameters(self):
        # from_config accepts exactly the keys to_config writes, so every
        # schedule file loads back, whatever its parameters
        spec = ArchitectureSpec(n_sites=4, site_pitch=3e-6, default_velocity=7.5, t_2q=60e-9)
        errp = ErrorModelParams(l_c=50e-9, t2_star=10e-6)
        sc = slice_circuit(Circuit(4, (cz(0, 3), h(1))))
        for strategy in STRATEGIES:
            s = map_strategy(strategy, sc, spec, Placement.identity(4), errp)
            back = schedule_from_json(schedule_to_json(s), circuit=s.circuit)
            assert back.arch == spec
            assert back.error_params.t2_star == pytest.approx(errp.t2_star, rel=1e-15)
            assert len(back.ops) == len(s.ops)

    def test_non_integer_indices_rejected(self):
        # int() once read 3.9 as 3: with every index raised by 0.5 this
        # schedule reloaded and revalidated with no violation
        s, doc = _ghz4_parallel()
        for path in _index_paths(doc):
            _change_index(doc, path, lambda index: index + 0.5)
        with pytest.raises(ValueError, match="integer"):
            schedule_from_json(json.dumps(doc), s.circuit)

    @settings(max_examples=100, deadline=None)
    @given(pick=st.integers(0, 2**16), value=st.one_of(st.booleans(), st.floats()))
    def test_any_non_integer_index_rejected(self, pick, value):
        s, doc = _ghz4_parallel()
        paths = _index_paths(doc)
        _change_index(doc, paths[pick % len(paths)], lambda _: value)
        with pytest.raises(ValueError, match="integer"):
            schedule_from_json(json.dumps(doc), s.circuit)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t0_ns", False),
            ("v_mps", "10.0"),
            ("dC", "0.001"),
            ("gate t0_ns", True),
            ("dur_ns", "45"),
            ("total_time_ns", None),
            ("per_qubit_error", True),
        ],
    )
    def test_non_number_field_rejected(self, field, value):
        # float() once read false as 0.0 and "0.001" as 0.001
        s, doc = _ghz4_parallel()
        shuttle = doc["ops"][0]
        gate = next(op for op in doc["ops"] if "gate" in op)
        node, key = {
            "gate t0_ns": (gate, "t0_ns"),
            "dur_ns": (gate, "dur_ns"),
            "total_time_ns": (doc, "total_time_ns"),
            "per_qubit_error": (doc["per_qubit_error"], 0),
        }.get(field, (shuttle, field))
        node[key] = value
        with pytest.raises(ValueError, match="number"):
            schedule_from_json(json.dumps(doc), s.circuit)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    @pytest.mark.parametrize(
        "field", ["t0_ns", "v_mps", "dC", "gate t0_ns", "dur_ns", "total_time_ns", "per_qubit_error"]
    )
    def test_non_finite_or_huge_number_rejected(self, field, literal):
        # NaN and Infinity once loaded (a NaN dC surfaced only as validator
        # rule "op"), and an integer too large for a float raised OverflowError
        s, doc = _ghz4_parallel()
        shuttle = doc["ops"][0]
        gate = next(op for op in doc["ops"] if "gate" in op)
        node, key = {
            "gate t0_ns": (gate, "t0_ns"),
            "dur_ns": (gate, "dur_ns"),
            "total_time_ns": (doc, "total_time_ns"),
            "per_qubit_error": (doc["per_qubit_error"], 0),
        }.get(field, (shuttle, field))
        node[key] = "@"
        text = json.dumps(doc).replace('"@"', literal)
        with pytest.raises(ValueError, match="finite"):
            schedule_from_json(text, s.circuit)

    @pytest.mark.parametrize("key", ["q", "gate", "zone"])
    def test_op_index_beyond_64_bits_rejected(self, key):
        s, doc = _ghz4_parallel()
        next(op for op in doc["ops"] if key in op)[key] = 2**64
        with pytest.raises(ValueError, match="too large"):
            schedule_from_json(json.dumps(doc), s.circuit)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["ops"][0].update({"from": 3}),
            lambda doc: doc["ops"][0].pop("t0_ns"),
            lambda doc: doc.clear(),
            lambda doc: doc.update(placement=7),
            lambda doc: doc.update(arch=[]),
            lambda doc: doc.update(ops={}),
            lambda doc: doc.update(strategy=5),
        ],
        ids=["location 3", "op without t0_ns", "empty document", "placement 7", "arch []", "ops {}", "strategy 5"],
    )
    def test_malformed_document_raises_value_error(self, mutate):
        # these once raised TypeError or KeyError, or loaded (ops {} as an
        # empty schedule, strategy 5 as a strategy named 5)
        s, doc = _ghz4_parallel()
        mutate(doc)
        with pytest.raises(ValueError):
            schedule_from_json(json.dumps(doc), s.circuit)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_structural_mutation_loads_or_raises_value_error(self, data):
        # a key deleted at any depth, or a value replaced by one of another
        # JSON type: the reader returns a Schedule or raises ValueError
        s, doc = _ghz4_parallel()
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        node = functools.reduce(lambda parent, key: parent[key], path[:-1], doc)
        if path and data.draw(st.booleans()):
            del node[path[-1]]
        else:
            old = node[path[-1]] if path else doc
            new = data.draw(JSON_VALUES.filter(lambda value: _json_type(value) is not _json_type(old)))
            if path:
                node[path[-1]] = new
            else:
                doc = new
        try:
            back = schedule_from_json(json.dumps(doc), s.circuit)
        except ValueError:
            return
        assert isinstance(back, Schedule)

    def test_short_placement_reported(self):
        # validating this reload once raised IndexError
        s, doc = _ghz4_parallel()
        doc["placement"] = [0, 1]
        back = schedule_from_json(json.dumps(doc), s.circuit)
        assert "c" in {v.rule for v in validate_schedule(back, back.arch)}

    def test_short_error_list_reported(self):
        s, doc = _ghz4_parallel()
        doc["per_qubit_error"] = doc["per_qubit_error"][:2]
        back = schedule_from_json(json.dumps(doc), s.circuit)
        assert "f" in {v.rule for v in validate_schedule(back, back.arch)}

    def test_header_fields(self, errp):
        s = run("baseline", Circuit(2, (h(0),)), 2, errp)
        doc = json.loads(schedule_to_json(s))
        assert doc["strategy"] == "baseline"
        assert doc["placement"] == [0, 1]
        assert doc["arch"]["n_sites"] == 2
        assert "l_c_nm" in doc["error_params"]
        shuttle = next(op for op in doc["ops"] if "q" in op)
        assert set(shuttle) == {"q", "from", "to", "t0_ns", "v_mps", "dC"}
        gate = next(op for op in doc["ops"] if "gate" in op)
        assert set(gate) == {"gate", "zone", "t0_ns", "dur_ns"}


class TestScheduleOps:
    """``Schedule.ops`` holds the ops as columns: it has a length, iterates
    as op objects and equals the columns of the same ops; the validator,
    ``summarize`` and the writer read the columns of whatever ops the
    schedule was given."""

    def test_columns_iterate_as_the_same_ops(self):
        schedules = _valid_schedules()
        for s, other in zip(schedules, schedules[1:]):
            ops = list(s.ops)
            assert {type(op) for op in ops} == {ShuttleOp, GateOp}
            assert len(s.ops) == len(ops)
            rebuilt = dataclasses.replace(s, ops=iter(ops))
            assert type(rebuilt.ops) is ScheduleOps and rebuilt.ops is not s.ops
            assert rebuilt.ops == s.ops != other.ops and rebuilt == s
            assert list(rebuilt.ops) == ops
            shuttles, gates = len(s.ops.shuttles.qubit), len(s.ops.gates.gate_index)
            assert repr(s.ops) == f"<ScheduleOps: {shuttles} shuttles, {gates} gates>"

    def test_no_tuple_emulation(self):
        s = _valid_schedules()[0]
        ops = tuple(s.ops)
        assert not isinstance(s.ops, collections.abc.Sequence)
        assert s.ops != ops and ops != s.ops
        for use in (lambda: s.ops[0], lambda: s.ops[1:], lambda: s.ops + ops, lambda: ops + s.ops,
                    lambda: hash(s.ops), lambda: hash(s)):
            with pytest.raises(TypeError):
                use()

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"qubit": 1.5}, TypeError),
            ({"start": "0"}, TypeError),
            ({"src": (0, "storage")}, TypeError),
            ({"qubit": 2**63}, OverflowError),
            # NaN once validated clean, and the writer then wrote a bare NaN
            # that the reader rejects
            ({"start": math.nan}, ValueError),
            ({"velocity": math.inf}, ValueError),
            ({"delta_c": -math.inf}, ValueError),
            ({"total_time": math.nan}, ValueError),
            ({"per_qubit_error": (0.0,) * 5 + (math.nan,)}, ValueError),
            ({"initial_sites": (True, 1, 2, 3, 4, 5)}, TypeError),
            ({"final_sites": (0.0, 1, 2, 3, 4, 5)}, TypeError),
            ({"final_sites": (2**64, 1, 2, 3, 4, 5)}, OverflowError),
        ],
    )
    def test_fields_the_columns_cannot_hold_rejected(self, change, error):
        s = _valid_schedules()[0]
        with pytest.raises(error):
            if change.keys() <= {field.name for field in dataclasses.fields(Schedule)}:
                dataclasses.replace(s, **change)
            else:
                _replace_op(s, _nth(s, ShuttleOp, 0), **change)
        with pytest.raises(TypeError):
            dataclasses.replace(s, ops=(*s.ops, "not an op"))

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(2, 9),
        seed=st.integers(0, 3),
        strategy=st.sampled_from(STRATEGIES),
        placement=st.sampled_from(("spectral", "random", "identity")),
    )
    def test_consumers_match_the_op_by_op_reference(self, family, n, seed, strategy, placement):
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family=family, n=n, seed=seed))))
        if placement == "spectral":
            pl = spectral_placement(build_interaction_graph(sc))
        else:
            pl = random_placement(n, seed) if placement == "random" else Placement.identity(n)
        s = map_strategy(strategy, sc, arch(n), pl, ErrorModelParams())
        rebuilt = dataclasses.replace(s, ops=tuple(s.ops))
        text = schedule_to_json(s)
        assert text == oracle_schedule_to_json(s) == schedule_to_json(rebuilt)
        report = summarize(s)
        assert report == summarize(rebuilt)
        counts = (report.n_shuttles, report.total_distance, report.n_gates_1q, report.n_gates_2q)
        assert counts == oracle_summary_counts(s)
        assert validate_schedule(s, s.arch) == validate_schedule(rebuilt, s.arch) == []

    def test_writer_matches_the_reference_on_broken_schedules(self):
        # out-of-range qubits, zones and gate indices, shifted times
        for label, s in _mutation_corpus():
            assert schedule_to_json(s) == oracle_schedule_to_json(s), label

    def test_edited_ops_are_read_not_the_mapped_ones(self):
        s = _valid_schedules()[2]
        # the last return shuttle dropped: its qubit ends in a zone (rule e)
        edited = _drop(s, 0, 0)
        assert validate_schedule(s, s.arch) == []
        want = oracle_validate_schedule(edited, s.arch)
        assert "e" in {v.rule for v in want} and validate_schedule(edited, s.arch) == want
        assert summarize(edited).n_shuttles == summarize(s).n_shuttles - 1
        assert schedule_to_json(edited) == oracle_schedule_to_json(edited) != schedule_to_json(s)


_TIMES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5e-12, 1.5e-12, 2.5e-12, -2.5e-12,
    1.0000005e-6, 1.7e299, 1.8e299, 1e300, -1e300,
)
_INT64 = (-(2**63), -1, 0, 1, 2**63 - 1)


def _writer_floats():
    # edge values, any finite float, and the half-way points of the 1 ps grid
    half_ps = st.integers(-(10**12), 10**12).map(lambda k: (k + 0.5) * 1e-12)
    return st.one_of(st.sampled_from(_TIMES), st.floats(allow_nan=False, allow_infinity=False), half_ps)


def _writer_ints():
    return st.one_of(st.sampled_from(_INT64), st.integers(-(2**63), 2**63 - 1))


@st.composite
def _handmade_columns(draw):
    """A schedule of hand-built op columns: any 64-bit qubit, gate, zone and
    location code (negative indices too) and any finite float, with only
    shuttles, only gates, both or no ops."""
    f, i = _writer_floats(), _writer_ints()
    shuttle = st.tuples(i, i, i, f, f, f, f).map(lambda row: ("s", row))
    gate = st.tuples(i, i, f, f).map(lambda row: ("g", row))
    kinds = draw(st.sampled_from(((shuttle, gate), (shuttle,), (gate,), ())))
    rows = draw(st.lists(st.one_of(*kinds), max_size=8)) if kinds else []
    ops = ScheduleOps.from_rows(
        "".join(kind for kind, _ in rows),
        [row for kind, row in rows if kind == "s"],
        [row for kind, row in rows if kind == "g"],
    )
    return Schedule(
        strategy="handmade", circuit=Circuit(2, ()), arch=arch(2), error_params=ErrorModelParams(),
        initial_sites=(0, 1), ops=ops, total_time=draw(f), per_qubit_error=(draw(f), draw(f)),
        final_sites=(0, 1),
    )


def _written(write, s):
    """The JSON text, or ValueError if the writer raises it."""
    try:
        return write(s)
    except ValueError:
        return ValueError


class TestWriter:
    """``schedule_to_json`` writes what the dict-per-op reference writes,
    and raises ValueError where that would not be JSON."""

    @settings(max_examples=300, deadline=None)
    @given(s=_handmade_columns())
    def test_handmade_columns_match_the_reference(self, s):
        assert _written(schedule_to_json, s) == _written(oracle_schedule_to_json, s)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("t0_ns", lambda s: _replace_op(s, _nth(s, ShuttleOp, 3), start=1e300)),
            ("t0_ns", lambda s: _replace_op(s, _nth(s, GateOp, 0), start=-1e300)),
            ("dur_ns", lambda s: _replace_op(s, _nth(s, GateOp, 1), duration=1e300)),
            ("total_time_ns", lambda s: dataclasses.replace(s, total_time=1e300)),
        ],
    )
    def test_time_too_large_for_ns_raises(self, field, edit):
        # 1e300 s is finite, but not in ns: the writer once wrote Infinity,
        # which schedule_from_json rejects
        s = edit(_valid_schedules()[0])
        with pytest.raises(ValueError, match=field):
            schedule_to_json(s)
        with pytest.raises(ValueError):
            oracle_schedule_to_json(s)


def _ns_edges():
    """Times where the picosecond kernel must hand over to ``_ns_json`` or
    must match it exactly: half-ps ties, signed zeros, subnormals, either
    side of 2**43 ns, and where ns stop being finite."""
    ties = [(k + 0.5) * 1e-12 for k in (0, 1, 2, -3, 12345, 10**9, 2**40)]
    edge = 2.0**43 * 1e-9
    around = [float(x) for x in np.nextafter(edge, [0.0, np.inf])] + [edge, edge * (1 - 1e-12), edge * (1 + 1e-12)]
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]
    return ties + around + [-x for x in around] + tiny + [0.5e-12, 1.0000005e-6, 1e3, 1.7e299]


def _texts_or_error(fn, values, name):
    try:
        return fn(values, name)
    except ValueError as exc:
        return ValueError, str(exc)


class TestTimeTexts:
    """``_ns_texts`` writes each time as ``_ns_json`` does, by integer ps."""

    def _scalar(self, values, name):
        return [_ns_json(x, name) for x in values.tolist()]

    def _kernel(self, values, name):
        return _ns_texts(values, name).tolist()

    @pytest.mark.parametrize("value", _ns_edges())
    def test_edges_match_the_scalar_path(self, value):
        values = np.array([value, 1e-6])
        assert self._kernel(values, "t0_ns") == self._scalar(values, "t0_ns")

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e4, 1e4),
        st.integers(-(10**15), 10**15).map(lambda k: k * 1e-12),
        st.integers(-(10**15), 10**15).map(lambda k: (k + 0.5) * 1e-12),
    ), max_size=20))
    def test_any_time_matches_the_scalar_path(self, values):
        values = np.array(values, dtype=np.float64)
        want = _texts_or_error(self._scalar, values, "dur_ns")
        assert _texts_or_error(self._kernel, values, "dur_ns") == want

    @pytest.mark.parametrize("value", [1.8e299, -1.8e299, 1e300, 1.7976931348623157e308])
    @pytest.mark.parametrize("name", ["t0_ns", "dur_ns"])
    def test_too_large_raises_naming_the_field(self, value, name):
        # ns * 1000 overflows here; pyproject makes a RuntimeWarning an error
        with pytest.raises(ValueError, match=name):
            _ns_texts(np.array([1e-6, value]), name)

    @pytest.mark.parametrize("strategy", ["baseline", "swap_return"])
    def test_peak_memory_of_one_join(self, strategy):
        # the op array, the header and the tail are joined once: the peak
        # above entry is the text and the fragments that make it, not three
        # copies of the text
        sc = slice_circuit(decompose(generate(BenchmarkSpec(family="qaoa", n=24, seed=0))))
        s = map_strategy(strategy, sc, arch(24), Placement.identity(24), ErrorModelParams())
        schedule_to_json(s)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = schedule_to_json(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 300_000
        assert peak - before <= 2.5 * len(text)
