"""Exact integer linear algebra on numpy arrays.

Arrays hold either int64 or Python ints (dtype object), and a product of
Python ints stays Python ints.  int64 is used only where a bound proves
that no partial sum can leave its range: fits_int64 is that one overflow
rule, shared by the routines here and by the product step of binop.
exact_matmul is the one place the package turns integers into floats: an
integer product whose bound is below 2^24 runs in float32 BLAS, below 2^53
in float64 BLAS, whose integers are exact there whatever the order of
summation.  BLOCK_CELLS is the one block size: every loop that takes an
array a block of rows at a time walks the slices of row_blocks, so no
array of a block holds more than about that many cells.  The
fraction-free echelon below picks independent rows; coordinates solves
for them modulo word-size primes and returns only an answer it has
checked exactly in integers.  No Fraction is formed here.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

import numpy as np

from .errors import ConstructionError

INT64_MAX = int(np.iinfo(np.int64).max)
# float32 and float64 hold every integer of smaller magnitude exactly
FLOAT32_EXACT = 1 << 24
FLOAT64_EXACT = 1 << 53
# the most cells one row block of a blocked loop holds
BLOCK_CELLS = 1 << 20


def abs_max(a) -> int:
    """Largest absolute entry of an integer array or int (0 when empty)."""
    a = np.asarray(a)
    if not a.size:
        return 0
    # np.abs of a 0-d object array would be a plain int, not an array
    m = int(np.abs(a.reshape(1) if a.ndim == 0 else a).max())
    # in int64, np.abs leaves -2^63 negative
    return m if m >= 0 else 1 << 63


def fits_int64(*bounds) -> bool:
    """Whether the product of nonnegative integer bounds is at most 2^63 - 1.

    Callers pass bounds whose product dominates every partial sum their
    int64 computation forms, e.g. max|a| * max|b| * (inner size) for a @ b.
    """
    return prod(bounds) <= INT64_MAX


def exact_matmul(a, b):
    """a @ b for integer arrays, exactly.

    max|a| * max|b| * (inner size) bounds every partial sum: below 2^24 the
    product runs in float32 BLAS, below 2^53 in float64 BLAS, each exact
    there, below 2^63 in int64, and past that on Python ints.  The result
    is int64 when the product ran in machine numbers and neither input
    holds Python ints (dtype object); otherwise Python ints.
    """
    amax, bmax = abs_max(a), abs_max(b)
    # each factor's own bound matters when the other is zero or empty
    top = max(amax * bmax * a.shape[-1], amax, bmax)
    if top < FLOAT64_EXACT:
        tier = np.float32 if top < FLOAT32_EXACT else np.float64
        out = (a.astype(tier) @ b.astype(tier)).astype(np.int64)
    elif fits_int64(top):
        out = a.astype(np.int64) @ b.astype(np.int64)
    else:
        return a.astype(object) @ b.astype(object)
    return out.astype(object) if object in (a.dtype, b.dtype) else out


def row_blocks(count, width):
    """Consecutive slices tiling range(count), for rows of width cells each:
    every slice holds at least one row and at most BLOCK_CELLS // width
    (a width of 0 counts as 1)."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def exact_multiply(a, b):
    """a * b elementwise for integer arrays or ints, broadcasting.

    Runs in int64 when max|a| * max|b| fits, which bounds every entry, and
    on Python ints otherwise.  As for exact_matmul, the result is int64
    only when it ran in int64 and neither input holds Python ints.
    """
    a, b = np.asarray(a), np.asarray(b)
    amax, bmax = abs_max(a), abs_max(b)
    if not (fits_int64(amax, bmax) and fits_int64(max(amax, bmax))):
        return a.astype(object) * b.astype(object)
    out = a.astype(np.int64) * b.astype(np.int64)
    return out.astype(object) if object in (a.dtype, b.dtype) else out


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


# Miller-Rabin on the primes 2 to 41 is exact below 3.317e24 (Sorenson and
# Webster 2015), and on 2, 3, 5 and 7 alone below 3 215 031 751 (Jaeschke 1993)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin.  An n at or past
    3.317e24 is a ValueError, as no base set here decides it."""
    if n >= _EXACT_BELOW:
        raise ValueError(f"cannot decide whether {n} is prime: it is not below {_EXACT_BELOW}")
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES[:4] if n < 3_215_031_751 else _BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _word_primes():
    """The primes below 2^31, from the largest down.

    Residues below 2^31 multiply to below 2^62, so an elimination step
    r - f * s on residues stays inside int64.
    """
    n = (1 << 31) - 1
    while n > 2:
        if is_prime(n):
            yield n
        n -= 2


def _solve_mod(block, rhs, p):
    """X with block @ X == rhs (mod p), as int64 residues in [0, p); None
    when block is singular mod p.  Gauss-Jordan on [block | rhs]."""
    k = len(block)
    aug = np.concatenate([block % p, rhs % p], axis=1).astype(np.int64)
    for c in range(k):
        nonzero = np.flatnonzero(aug[c:, c])
        if not nonzero.size:
            return None
        r = c + int(nonzero[0])
        if r != c:
            aug[[c, r]] = aug[[r, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), -1, p) % p
        factors = aug[:, c].copy()
        factors[c] = 0
        # the columns before c are unit columns, which this step keeps
        aug[:, c:] -= np.outer(factors, aug[c, c:])
        aug[:, c:] %= p
    return aug[:, k:]


def _rational_denominator(r: int, m: int, bound: int, den_bound: int):
    """The d of the first n = d r (mod m) with |n| <= bound that the extended
    Euclidean algorithm on (m, r) reaches (Wang 1981), if 0 < d <= den_bound."""
    r0, r1, t0, t1 = m, r % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    d = abs(t1)
    return d if 0 < d <= den_bound else None


def _reconstruct(residues, m):
    """(den, numerators) with numerators == den * residues (mod m), where
    den > 0 and den and every |numerator| are at most sqrt(m / 2); None when
    the search below finds none.

    One common denominator: while some entry of den * residues has no small
    symmetric residue, a scalar rational reconstruction of that entry
    multiplies den by the denominator it needs.  So a result that is an
    integer table over a small denominator costs few scalar steps.
    """
    bound = isqrt((m - 1) // 2)
    residues = residues.astype(object)
    den = 1
    while True:
        lifted = den * residues % m
        lifted = np.where(lifted > m // 2, lifted - m, lifted)
        big = np.flatnonzero(np.abs(lifted.ravel()) > bound)
        if not big.size:
            return den, lifted
        d = _rational_denominator(int(lifted.flat[big[0]]), m, bound, bound // den)
        if d is None:
            return None
        den *= d


def _hadamard_square(block, rhs) -> int:
    """A bound on the square of every determinant of block and of block with
    one column replaced by a column of rhs (Hadamard's inequality over the
    columns), so of det(block) and every numerator of Cramer's rule."""
    norms = [sum(x * x for x in col) for col in block.T.tolist()]
    full = prod(norms)
    if not full:
        return 0
    widest = max((sum(x * x for x in col) for col in rhs.T.tolist()), default=0)
    return full * max(1, -(-widest // min(norms)))


def coordinates(basis, pivots, targets):
    """Coordinates of integer target rows over independent integer basis
    rows, as integer rows over one positive denominator: (den, coords, inside).

    pivots are columns on which the basis is nonsingular: block =
    basis[:, pivots]^T.  block X = targets[:, pivots]^T is solved modulo
    word-size primes (a prime that divides det(block) is skipped), the
    residues are joined by the Chinese remainder theorem, and coords / den
    is read back from them by rational reconstruction over one common
    denominator.  Nothing unchecked is returned: basis^T coords^T == den
    targets^T must hold exactly on the pivot columns, which makes coords /
    den the solution, or more primes are taken.  Past the Hadamard bound
    the reconstruction is certain, so a failure there is a
    ConstructionError.  On the other columns the check decides inside,
    False for a target outside the span, whose row is no answer.
    """
    block = basis[:, pivots].T
    rhs = targets[:, pivots].T
    square = _hadamard_square(block, rhs)
    if not square:
        raise ConstructionError("pivot block is singular")
    # once m > 2 H^2 every true numerator and den is within sqrt(m / 2)
    certain = 2 * square
    residues, m, skipped = None, 1, 1
    for p in _word_primes():
        x = _solve_mod(block, rhs, p)
        if x is None:
            # every skipped prime divides det(block), and |det| <= H
            skipped *= p
            if skipped * skipped > square:
                raise ConstructionError("pivot block is singular")
            continue
        if residues is None:
            residues = x.astype(object)
        else:
            # the residue mod m * p that is residues mod m and x mod p
            step = (x.astype(object) - residues) * pow(m, -1, p) % p
            residues = residues + m * step
        m *= p
        found = _reconstruct(residues, m)
        if found is not None:
            den, solved = found
            if fits_int64(abs_max(solved)):
                solved = solved.astype(np.int64)
            check = exact_matmul(basis.T, solved) == exact_multiply(den, targets.T)
            if check[pivots].all():
                return den, solved.T, check.all(axis=0)
        if m > certain:
            raise ConstructionError("modular solve failed its exact check")
    raise ConstructionError("ran out of word-size primes")
