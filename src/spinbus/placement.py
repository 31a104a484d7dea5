"""Initial qubit placement: interaction graphs and spectral linear layout.

Two-qubit interactions are collected into a weighted graph where a gate on
{u, v} in layer l contributes 2^-l to the edge weight (weights of repeated
interactions sum). Placing the qubits on the 1D bus so that the weighted
sum of edge lengths is minimized is the (NP-hard) minimum linear
arrangement problem; the spectral heuristic orders qubits by their
component in the Laplacian's Fiedler vector. The layer discount spreads
weights over orders of magnitude, and an order resting on the lightest
edges would differ between eigensolvers, so edges below ``EDGE_FLOOR``
times the heaviest are dropped. The rest is laid out one connected
component at a time: each of three or more qubits is ordered by the
Fiedler vector of its own Laplacian, and the components occupy contiguous
runs of sites, largest first, ties broken by smallest qubit index. The
small-instance oracle, exact MinLA over all n! arrangements, lives in
``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import SlicedCircuit
from .rng import SplitMix64

#: Spectral placement drops edges lighter than this fraction of the heaviest.
EDGE_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Finite, symmetric, nonnegative weight matrix over qubits, zero diagonal."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be exactly symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("weights must have a zero diagonal")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Placement:
    """Bijection virtual qubit -> storage site: ``perm[qubit] = site``."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        # int() alone would read 0.5 as 0 and True as 1
        if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in self.perm):
            raise ValueError(f"perm entries must be integers, got {self.perm}")
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm must be a bijection onto 0..{n - 1}, got {self.perm}")

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "Placement":
        return Placement(tuple(range(n)))


def build_interaction_graph(sc: SlicedCircuit) -> InteractionGraph:
    """Layer-discounted interaction graph of a sliced native circuit."""
    c = sc.circuit
    gate_index, layer = sc.gate_layers
    pair = c.two_qubit[gate_index]
    uv = c.operands_of(gate_index[pair])[1]  # u, v of each gate in layer order
    # w[u, v] then w[v, u] for each gate in turn: a cell's terms add in the
    # same order on both sides of the diagonal, so w stays exactly symmetric
    w = np.zeros((c.num_qubits, c.num_qubits))
    np.add.at(w, (uv, uv.reshape(-1, 2)[:, ::-1].ravel()), np.repeat(np.ldexp(1.0, -layer[pair]), 2))
    return InteractionGraph(w)


def laplacian(g: InteractionGraph) -> np.ndarray:
    """Graph Laplacian D - A; rows sum to zero, positive semidefinite."""
    a = g.weights
    return np.diag(a.sum(axis=1)) - a


def fiedler_vector(lap: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the second-smallest Laplacian eigenvalue.

    The eigenpairs come from ``np.linalg.eigh``, which reads only the lower
    triangle, so the input is checked to be square, finite and exactly symmetric.
    The result is orthogonal to the all-ones vector (exact for connected
    graphs; enforced by projection in the degenerate disconnected case) and
    sign-fixed so its first nonzero component is positive.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or not np.all(np.isfinite(lap)) or not np.array_equal(lap, lap.T):
        raise ValueError(f"need a square, finite, exactly symmetric matrix, got {lap.shape}")
    n = lap.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    eigvals, eigvecs = np.linalg.eigh(lap)
    lam2 = float(eigvals[1])
    scale = max(float(np.max(np.abs(lap))), 1.0)
    x = eigvecs[:, 1]
    x = x - x.mean()
    if np.linalg.norm(x) < 1e-8:
        # the lam2 eigenspace column happened to align with all-ones; pick
        # the best-conditioned replacement from the same eigenspace
        gap = 1e-9 * scale
        candidates = [
            eigvecs[:, j] - eigvecs[:, j].mean()
            for j in range(n)
            if eigvals[j] <= lam2 + gap
        ]
        x = max(candidates, key=lambda c: float(np.linalg.norm(c)))
    x = x / np.linalg.norm(x)
    lead = x[np.abs(x) > 1e-12]
    return -x if lead.size and lead[0] < 0 else x


def _connected_components(g: InteractionGraph) -> list[list[int]]:
    """Qubit sets joined by edges of weight > 0, each sorted."""
    adjacent = g.weights > 0.0
    seen = [False] * g.n
    components = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        members, frontier = [root], [root]
        while frontier:
            u = frontier.pop()
            for v in np.flatnonzero(adjacent[u]):
                if not seen[v]:
                    seen[v] = True
                    members.append(int(v))
                    frontier.append(int(v))
        components.append(sorted(members))
    return components


def spectral_placement(g: InteractionGraph) -> Placement:
    """Lay the connected components out on contiguous runs of sites.

    Edges lighter than ``EDGE_FLOOR`` times the heaviest edge are dropped
    first. Components go largest first, ties broken by smallest qubit index.
    Within a component of three or more qubits, qubits are ordered by
    their entry in the Fiedler vector of the component's own Laplacian
    (stable ties by index); smaller components keep index order. A
    connected graph is thus ordered by its Fiedler vector, and an edgeless
    graph gives the identity.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 qubits, got {g.n}")
    g = InteractionGraph(np.where(g.weights < EDGE_FLOOR * g.weights.max(), 0.0, g.weights))
    components = sorted(_connected_components(g), key=lambda c: (-len(c), c[0]))
    order: list[int] = []
    for members in components:
        if len(members) < 3:
            order.extend(members)
            continue
        sub = InteractionGraph(g.weights[np.ix_(members, members)])
        x = fiedler_vector(laplacian(sub))
        order.extend(members[int(i)] for i in np.argsort(x, kind="stable"))
    return Placement(tuple(np.argsort(order)))  # perm[qubit] = site


def random_placement(n: int, seed: int) -> Placement:
    """Uniformly random placement, deterministic per seed (SplitMix64)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    perm = list(range(n))
    SplitMix64(seed).shuffle(perm)
    return Placement(tuple(perm))


def minla_cost(g: InteractionGraph, p: Placement) -> float:
    """Weighted sum of site distances over all edges."""
    if p.n != g.n:
        raise ValueError(f"size mismatch: graph n={g.n}, placement n={p.n}")
    pos = np.asarray(p.perm)
    iu, iv = np.triu_indices(g.n, 1)
    return float(np.sum(g.weights[iu, iv] * np.abs(pos[iu] - pos[iv])))
