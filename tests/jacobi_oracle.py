"""An independent second eigensolver for the placement tests.

This is the cyclic Jacobi solver the library used for spectral placement
before it moved to ``np.linalg.eigh``, kept word for word (only renamed).
It shares no code with LAPACK, so a test that swaps it in for
``np.linalg.eigh`` and gets the same placements shows that the pinned
output bytes do not rest on the LAPACK build numpy links. Slow: every
rotation rewrites whole rows and columns with separate numpy calls.
Tests only.
"""
from __future__ import annotations

import numpy as np


def oracle_jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues, eigenvectors) sorted ascending, eigenvectors in
    columns. The off-diagonal threshold is ``tol`` relative to the largest
    input entry, which makes the whole rotation sequence invariant under
    scaling the input.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    v = np.eye(n)
    scale = float(np.max(np.abs(a))) if n else 0.0
    if scale == 0.0:
        return np.zeros(n), v
    thresh = tol * scale
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= thresh:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                row_p, row_q = a[p].copy(), a[q].copy()
                a[p] = c * row_p - s * row_q
                a[q] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]
