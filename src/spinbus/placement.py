"""Initial qubit placement: interaction graphs and spectral linear layout.

Two-qubit interactions are collected into a weighted graph where a gate on
{u, v} in layer l contributes 2^-l to the edge weight (weights of repeated
interactions sum). Placing the qubits on the 1D bus so that the weighted
sum of edge lengths is minimized is the (NP-hard) minimum linear
arrangement problem; the spectral heuristic orders qubits by their
component in the Laplacian's Fiedler vector. A disconnected graph is laid
out one connected component (edges of weight > 0) at a time: each
component of three or more qubits is ordered by the Fiedler vector of its
own Laplacian, and the components occupy contiguous runs of sites, largest
first, ties broken by smallest qubit index. The small-instance oracle, an
exact enumerator over all n! arrangements, lives in ``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import SlicedCircuit
from .rng import SplitMix64

#: Jacobi's off-diagonal threshold (relative to the largest entry) and sweep cap.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Symmetric nonnegative weight matrix over qubits, zero diagonal."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
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
    return InteractionGraph(w)


def laplacian(g: InteractionGraph) -> np.ndarray:
    """Graph Laplacian D - A; rows sum to zero, positive semidefinite."""
    a = g.weights
    return np.diag(a.sum(axis=1)) - a


def jacobi_eigh(a: np.ndarray):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues, eigenvectors) sorted ascending, eigenvectors in
    columns. The off-diagonal threshold is ``JACOBI_TOL`` relative to the
    largest input entry, which makes the whole rotation sequence invariant
    under scaling the input. Placement depends on the exact bits, so there is
    no ``@``/BLAS (fused multiply-adds round differently) and ``np.hypot``,
    not ``math.hypot`` (they differ in the last ulp). Rows p, q of [A | V^T] are
    rotated, then copied to columns p, q: exact only for exactly symmetric input.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("need an exactly symmetric matrix")
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if n else 0.0
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    thresh = JACOBI_TOL * scale
    av = np.hstack([a, np.eye(n)])  # [A | V^T]
    a = av[:, :n]
    rows, a_rows, a_cols = list(av), list(a), list(a.T)
    for _ in range(JACOBI_MAX_SWEEPS):
        if np.abs(a - np.diag(np.diag(a))).max() <= thresh:
            break
        for p, row_p in enumerate(rows[:-1]):
            for q, row_q in enumerate(rows[p + 1:], p + 1):
                apq = row_p.item(q)
                if abs(apq) <= thresh:
                    continue
                app, aqq = row_p.item(p), row_q.item(q)
                theta = (aqq - app) / (2.0 * apq)
                t = float(1.0 / (abs(theta) + np.hypot(theta, 1.0)))  # 1.0 at theta = 0
                t = t if theta >= 0.0 else -t
                c = float(1.0 / np.hypot(t, 1.0))
                s = t * c
                cp, sq, sp = c * row_p, s * row_q, s * row_p
                np.add(sp, c * row_q, out=row_q)
                np.subtract(cp, sq, out=row_p)
                a_cols[p][:], a_cols[q][:] = a_rows[p], a_rows[q]
                # the {p, q} block as the row update, then the column update, leave it
                row_p[p], row_p[q] = c * (c * app - s * apq) - s * (c * apq - s * aqq), 0.0
                row_q[q], row_q[p] = s * (s * app + c * apq) + c * (s * apq + c * aqq), 0.0
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order], av[:, n:].T[:, order]


def fiedler_vector(lap: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the second-smallest Laplacian eigenvalue.

    The result is orthogonal to the all-ones vector (exact for connected
    graphs; enforced by projection in the degenerate disconnected case) and
    sign-fixed so its first nonzero component is positive.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    eigvals, eigvecs = jacobi_eigh(lap)
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
    for component in x:
        if abs(component) > 1e-12:
            if component < 0:
                x = -x
            break
    return x


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

    Components go largest first, ties broken by smallest qubit index.
    Within a component of three or more qubits, qubits are ordered by
    their entry in the Fiedler vector of the component's own Laplacian
    (stable ties by index); smaller components keep index order. A
    connected graph is thus ordered by its Fiedler vector, and an edgeless
    graph gives the identity.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 qubits, got {g.n}")
    components = sorted(_connected_components(g), key=lambda c: (-len(c), c[0]))
    order: list[int] = []
    for members in components:
        if len(members) < 3:
            order.extend(members)
            continue
        sub = InteractionGraph(g.weights[np.ix_(members, members)])
        x = fiedler_vector(laplacian(sub))
        order.extend(members[int(i)] for i in np.argsort(x, kind="stable"))
    perm = [0] * g.n
    for site, qubit in enumerate(order):
        perm[qubit] = site
    return Placement(tuple(perm))


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
