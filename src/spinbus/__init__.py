"""spinbus: a quantum-circuit compiler for 1D spin-qubit shuttling buses.

Pipeline: parse or generate a circuit, decompose to the {rx, rz, h, cz}
basis, slice into parallel layers, pick an initial placement (spectral,
random or identity), then map with one of five strategies into a
timestamped, validated schedule of shuttle and gate operations with
per-qubit accumulated dephasing.
"""
from .architecture import ArchitectureSpec, Location, distance, position, shuttle_time
from .benchgen import FAMILIES, BenchmarkSpec, generate
from .circuit import (
    Circuit,
    Gate,
    GateKind,
    SlicedCircuit,
    decompose,
    slice_circuit,
)
from .error_model import (
    ErrorModelParams,
    optimal_velocity,
    phase_error,
    phase_error_terms,
)
from .mapper import STRATEGIES, STRATEGY_FLAGS, map_strategy
from .metrics import CompilationReport, StrategyRatios, compare, summarize
from .placement import (
    InteractionGraph,
    Placement,
    build_interaction_graph,
    fiedler_vector,
    laplacian,
    minla_cost,
    random_placement,
    spectral_placement,
)
from .qasm import QasmError, QasmSyntaxError, UnsupportedConstructError, export_qasm, parse_qasm
from .schedule import GateOp, Schedule, ShuttleOp, schedule_from_json, schedule_to_json
from .validate import Violation, validate_schedule

__version__ = "0.1.0"
