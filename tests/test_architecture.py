import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbus.architecture import (
    ArchitectureSpec,
    Location,
    decode_locations,
    distance,
    position,
    shuttle_time,
)
from spinbus.circuit import Circuit, Gate, GateKind, slice_circuit
from spinbus.error_model import ErrorModelParams
from spinbus.mapper import map_strategy
from spinbus.placement import Placement
from spinbus.schedule import schedule_from_json, schedule_to_json
from spinbus.validate import validate_schedule

UM = 1e-6


@pytest.fixture
def spec():
    return ArchitectureSpec(n_sites=8)


def test_position_examples(spec):
    assert position(Location.site(2), spec) == 4 * UM
    assert position(Location.zone(3), spec) == 7 * UM
    assert position(Location.zone(0), spec) == 1 * UM


def test_distance_examples(spec):
    # reference scenario: a qubit at site 2 shuttles 3 um to zone 3
    assert distance(Location.site(2), Location.zone(3), spec) == 3 * UM
    assert distance(Location.site(3), Location.zone(3), spec) == pytest.approx(
        1 * UM, rel=1e-12
    )
    assert distance(Location.site(5), Location.site(5), spec) == 0.0


def test_distance_symmetry(spec):
    a, b = Location.site(1), Location.zone(6)
    assert distance(a, b, spec) == distance(b, a, spec)


def test_shuttle_time_examples():
    assert shuttle_time(3 * UM, 10.0) == 0.3e-6
    assert shuttle_time(0.0, 10.0) == 0.0
    assert shuttle_time(1 * UM, 10.0) == 0.1e-6


def test_shuttle_time_rejects_bad_args():
    with pytest.raises(ValueError):
        shuttle_time(1 * UM, 0.0)
    with pytest.raises(ValueError):
        shuttle_time(1 * UM, -5.0)
    with pytest.raises(ValueError):
        shuttle_time(-1 * UM, 10.0)


def test_interleaving(spec):
    for i in range(spec.n_sites - 1):
        assert (
            position(Location.site(i), spec)
            < position(Location.zone(i), spec)
            < position(Location.site(i + 1), spec)
        )


def test_triangle_equality_on_the_line(spec):
    locs = [Location.site(i) for i in range(8)] + [Location.zone(j) for j in range(8)]
    locs.sort(key=lambda loc: position(loc, spec))
    for i in range(len(locs) - 2):
        a, b, c = locs[i], locs[i + 1], locs[i + 2]
        assert distance(a, c, spec) == pytest.approx(
            distance(a, b, spec) + distance(b, c, spec), abs=1e-18
        )


def test_location_range_checked(spec):
    with pytest.raises(ValueError):
        position(Location.site(8), spec)
    with pytest.raises(ValueError):
        position(Location.zone(-1), spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        ArchitectureSpec(n_sites=1)
    with pytest.raises(ValueError):
        ArchitectureSpec(n_sites=4, site_pitch=0.0)
    with pytest.raises(ValueError):
        ArchitectureSpec(n_sites=4, t_2q=-1e-9)
    with pytest.raises(ValueError):
        # zones must lie strictly between neighbouring sites
        ArchitectureSpec(n_sites=4, zone_offset=2e-6, site_pitch=2e-6)


@pytest.mark.parametrize(
    "fields",
    [
        # the offset is absorbed in rounding: zone j == site j
        {"n_sites": 6, "site_pitch": 1e244, "zone_offset": 1e-6},
        {"n_sites": 6, "site_pitch": 2.9e22, "zone_offset": 1e-6},
        # zone j == site j+1 after rounding
        {"n_sites": 6, "site_pitch": 1e10 + 1e-6, "zone_offset": 1e10},
        # positions beyond a float
        {"n_sites": 6, "site_pitch": 1e308, "zone_offset": 1.0},
        {"n_sites": 10**400},
    ],
)
def test_positions_must_stay_increasing(fields):
    with pytest.raises(ValueError, match="do not stay increasing"):
        ArchitectureSpec(**fields)


@settings(max_examples=300, deadline=None)
@given(
    n_sites=st.integers(2, 64),
    pitch=st.floats(-300, 300).map(lambda e: 10.0**e),
    share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_accepted_positions_increase(n_sites, pitch, share):
    try:
        spec = ArchitectureSpec(n_sites=n_sites, site_pitch=pitch, zone_offset=pitch * share)
    except ValueError:
        return
    codes = np.arange(2 * n_sites, dtype=np.int64)  # site 0, zone 0, site 1, ...
    assert (np.diff(decode_locations(codes, spec)[2]) > 0).all()
    assert [position(Location.zone(j), spec) for j in range(n_sites)] == decode_locations(codes, spec)[2][1::2].tolist()


@pytest.mark.parametrize("n_sites", [2.5, 3.0, True, "4", None])
def test_n_sites_must_be_an_integer(n_sites):
    # 2.5 once failed only in map_strategy, and to_config wrote a value
    # from_config rejects
    with pytest.raises(TypeError, match="n_sites must be an integer"):
        ArchitectureSpec(n_sites=n_sites)


def test_numpy_n_sites_is_stored_as_int():
    spec = ArchitectureSpec(n_sites=np.int64(4))
    assert type(spec.n_sites) is int and spec == ArchitectureSpec(n_sites=4)
    assert ArchitectureSpec.from_config(json.loads(json.dumps(spec.to_config()))) == spec


def test_numpy_qubit_count_schedule_writes_json():
    # a numpy qubit count once mapped and validated, then failed in
    # schedule_to_json: "Object of type int64 is not JSON serializable"
    c = Circuit(np.int64(4), (Gate(GateKind.H, (0,)), Gate(GateKind.CZ, (1, 3))))
    spec, errp = ArchitectureSpec(n_sites=c.num_qubits), ErrorModelParams()
    s = map_strategy("parallel", slice_circuit(c), spec, Placement.identity(4), errp)
    assert validate_schedule(s, spec) == []
    text = schedule_to_json(s)
    assert json.loads(text)["arch"]["n_sites"] == 4
    assert schedule_from_json(text, c).arch == spec


def test_config_round_trip(spec):
    cfg = spec.to_config()
    assert cfg == {
        "n_sites": 8,
        "site_pitch_um": 2.0,
        "zone_offset_um": 1.0,
        "default_velocity_mps": 10.0,
        "t_1q_ns": 20.0,
        "t_2q_ns": 45.0,
    }
    again = ArchitectureSpec.from_config(json.loads(json.dumps(cfg)))
    assert again == spec
    custom = ArchitectureSpec(n_sites=5, site_pitch=3 * UM, default_velocity=7.5)
    assert ArchitectureSpec.from_config(json.loads(json.dumps(custom.to_config()))) == custom


@pytest.mark.parametrize("name", ["site_pitch", "zone_offset", "default_velocity", "t_1q", "t_2q"])
def test_non_finite_values_rejected(name):
    with pytest.raises(ValueError, match="finite"):
        ArchitectureSpec(n_sites=4, **{name: float("inf")})
    with pytest.raises(ValueError):
        ArchitectureSpec(n_sites=4, **{name: float("nan")})


@pytest.mark.parametrize(
    "key", ["n_sites", "site_pitch_um", "zone_offset_um", "default_velocity_mps", "t_1q_ns", "t_2q_ns"]
)
@pytest.mark.parametrize("value", [True, "20", None, [1]])
def test_from_config_rejects_non_numbers(key, value):
    # float() once read true as 1.0 and "20" as 20.0
    cfg = {**ArchitectureSpec(n_sites=4).to_config(), key: value}
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        ArchitectureSpec.from_config(cfg)


def test_keys_left_out_keep_their_defaults():
    assert ArchitectureSpec.from_config({"n_sites": 4}) == ArchitectureSpec(4)
    assert ArchitectureSpec.from_config({"n_sites": 4, "t_2q_ns": 60.0}) == ArchitectureSpec(4, t_2q=60.0 * 1e-9)


def test_from_config_reads_n_sites_as_a_whole_number():
    assert ArchitectureSpec.from_config({"n_sites": 4.0}) == ArchitectureSpec(4)
    with pytest.raises(ValueError, match="n_sites must be a whole number"):
        ArchitectureSpec.from_config({"n_sites": 4.5})


def test_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="velocity_mps"):
        ArchitectureSpec.from_config({"n_sites": 4, "velocity_mps": 5.0})
