"""Exact integer linear algebra on numpy arrays.

Arrays hold either int64 or Python ints (dtype object).  int64 is used only
where a bound proves that no partial sum can leave its range: fits_int64 is
that one overflow rule, shared by exact_matmul here and by the product step
of binop.  overlap_counts, for 0/1 arrays only, runs in float64, whose
integers are exact below 2^53.  The fraction-free routines below pick
independent rows and solve for coordinates in integers over one common
denominator; no Fraction is formed here.
"""

from __future__ import annotations

from math import gcd, prod

import numpy as np

from .errors import ConstructionError

INT64_MAX = int(np.iinfo(np.int64).max)


def abs_max(a) -> int:
    """Largest absolute entry of an integer array (0 when empty)."""
    return int(np.abs(a).max()) if a.size else 0


def fits_int64(*bounds) -> bool:
    """Whether the product of nonnegative integer bounds is at most 2^63 - 1.

    Callers pass bounds whose product dominates every partial sum their
    int64 computation forms, e.g. max|a| * max|b| * (inner size) for a @ b.
    """
    return prod(bounds) <= INT64_MAX


def exact_matmul(a, b):
    """a @ b for integer arrays, as an object array of Python ints.

    The product runs in int64 only when max|a| * max|b| * (inner size)
    bounds every partial sum below 2^63; otherwise it runs on Python ints.
    """
    if fits_int64(abs_max(a), abs_max(b), a.shape[-1]):
        return (a.astype(np.int64) @ b.astype(np.int64)).astype(object)
    return a.astype(object) @ b.astype(object)


def overlap_counts(a):
    """a @ a.T for a 0/1 array, as int64: the ones each two rows share.

    The product runs in float64, which has a BLAS path (a symmetric one for
    a times its own transpose) where int64 has none.  Every partial sum is
    an integer at most the row length, far below 2^53 for any array held in
    memory, so the product is exact.
    """
    f = a.astype(np.float64)
    return (f @ f.T).astype(np.int64)


def exact_multiply(a, b):
    """a * b elementwise for integer arrays or ints, broadcasting.

    Runs in int64 when max|a| * max|b| fits, which bounds every entry;
    otherwise on Python ints (dtype object).
    """
    a, b = np.asarray(a), np.asarray(b)
    if fits_int64(abs_max(a), abs_max(b)):
        return a.astype(np.int64) * b.astype(np.int64)
    return a.astype(object) * b.astype(object)


def independent_rows(rows, order, limit):
    """Greedy independent subset of integer rows, taken in order, at most limit.

    A fraction-free incremental echelon: each candidate is reduced against
    the rows kept so far by cross-multiplying at their pivot columns (and
    dividing out the content), and kept when something nonzero is left.
    Returns the kept indices and the pivot column of each; rows[kept] is
    nonsingular on those columns.
    """
    echelon, kept, pivots = [], [], []
    for idx in order:
        if len(kept) == limit:
            break
        r = [int(x) for x in rows[idx]]
        for e, c in zip(echelon, pivots):
            if r[c]:
                f, p = r[c], e[c]
                r = [p * x - f * y for x, y in zip(r, e)]
                content = gcd(*r) or 1
                r = [x // content for x in r]
        col = next((c for c, x in enumerate(r) if x), None)
        if col is not None:
            echelon.append(r)
            kept.append(idx)
            pivots.append(col)
    return kept, pivots


def _adjugate(m):
    """(adj, det) with m @ adj == det * I, for a nonsingular integer matrix.

    Fraction-free Gauss-Jordan (Bareiss) on [m | I]: every division is
    exact, the left block ends as det * I and the right block as adj; det
    is the determinant up to the sign of the row swaps.
    """
    k = len(m)
    aug = [[int(x) for x in row] + [int(i == j) for j in range(k)] for i, row in enumerate(m)]
    prev = 1
    for c in range(k):
        piv = next((r for r in range(c, k) if aug[r][c]), None)
        if piv is None:
            raise ConstructionError("pivot block is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        for r in range(k):
            if r != c:
                f = aug[r][c]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], aug[c])]
        prev = p
    return np.array([row[k:] for row in aug], dtype=object), prev


def coordinates(basis, pivots, targets):
    """Coordinates of integer target rows over independent integer basis
    rows, as integer rows over one positive denominator: (den, coords, inside).

    pivots are columns on which the basis is nonsingular.  One adjugate of
    that k x k block solves every target at once, so coords[t] / den are
    target t's coordinates.  basis^T C == den T is then checked on all
    columns: inside[t] is False for a target outside the span, whose row
    is no answer.
    """
    adj, det = _adjugate(basis[:, pivots].T)
    if det < 0:
        adj, det = -adj, -det
    solved = exact_matmul(adj, targets[:, pivots].T)
    inside = (exact_matmul(basis.T, solved) == det * targets.T).all(axis=0)
    return det, solved.T, inside
