"""Exact integer linear algebra on numpy arrays.

Arrays hold either int64 or Python ints (dtype object), and a product of
Python ints stays Python ints.  int64 is used only where a bound proves
that no partial sum can leave its range: fits_int64 is that one overflow
rule, shared by the routines here and by the product step of binop.
RightFactor.times, behind exact_matmul, is the one place the package turns
integers into floats: an integer product whose bound is below 2^24 runs in
float32 BLAS, below 2^53 in float64 BLAS, whose integers are exact there
whatever the order of summation.  A blocked loop whose blocks share one
right factor holds it as a RightFactor, which reads its bound and makes
its cast once for every block.  BLOCK_CELLS is the one block size: every
loop that takes an array a block of rows at a time walks the slices of
row_blocks, so no array of a block holds more than about that many
cells.  One Gauss-Jordan modulo a word-size prime, eliminate, picks
independent columns with their pivot rows and serves coordinates, which
solves modulo such primes and returns only an answer it has checked
exactly in integers.  No Fraction is formed here.
"""

from __future__ import annotations

from math import isqrt, prod

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
    return RightFactor(b).times(a)


class RightFactor:
    """One right factor b of many exact products a @ b (exact_matmul).

    A blocked loop multiplies each block by the same b: its bound is read
    once, here, and its cast to a tier is made once, when a product first
    runs in that tier.  Each product picks its tier from b's bound and its
    own left factor's, by exact_matmul's rule.
    """

    def __init__(self, b):
        self.b, self.bound, self._casts = b, abs_max(b), {}

    def _cast(self, tier):
        if tier not in self._casts:
            self._casts[tier] = self.b.astype(tier)
        return self._casts[tier]

    def times(self, a):
        """a @ b, exactly, typed as exact_matmul types it."""
        amax, bmax = abs_max(a), self.bound
        # each factor's own bound matters when the other is zero or empty
        top = max(amax * bmax * a.shape[-1], amax, bmax)
        if top < FLOAT64_EXACT:
            tier = np.float32 if top < FLOAT32_EXACT else np.float64
            out = (a.astype(tier) @ self._cast(tier)).astype(np.int64)
        elif fits_int64(top):
            out = a.astype(np.int64) @ self._cast(np.int64)
        else:
            return a.astype(object) @ self._cast(object)
        return out.astype(object) if object in (a.dtype, self.b.dtype) else out


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


def word_primes():
    """The primes below 2^31, from the largest down.

    Residues below 2^31 multiply to below 2^62, so an elimination step
    r - f * s on residues stays inside int64.
    """
    # 2^31 - 1 is prime (Euler 1772), so the first needs no test
    yield (1 << 31) - 1
    n = (1 << 31) - 3
    while n > 2:
        if is_prime(n):
            yield n
        n -= 2


def eliminate(a, p, width=None):
    """Gauss-Jordan on the integer matrix a modulo the prime p, pivoting in
    its first width columns (all by default): (reduced, rows, cols).

    Each column pivots on its first nonzero entry in a row not yet a pivot
    row, which is scaled to 1 there and cleared from every other row:
    rows[j], cols[j] is the j-th pivot.  So cols are the greedy independent
    columns mod p, in order, and a[rows][:, cols] is nonsingular mod p, so
    over Q (a minor nonzero mod p is nonzero).  reduced holds a's residues
    after it, int64 in [0, p).
    """
    work = (a % p).astype(np.int64)
    free = np.ones(len(work), dtype=np.int64)
    rows, cols = [], []
    for c in range(work.shape[1] if width is None else width):
        nonzero = np.flatnonzero(work[:, c] * free)
        if not nonzero.size:
            continue
        r = nonzero[0]
        free[r] = 0
        pivot = work[r, c:] * pow(int(work[r, c]), -1, p) % p
        # before column c row r is zero, as pivot columns are unit columns and
        # the others zero off the pivot rows; it clears itself, then is pivot
        work[:, c:] -= work[:, c, None] * pivot
        work[:, c:] %= p
        work[r, c:] = pivot
        rows.append(r)
        cols.append(c)
    return work, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


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
    widest = max((sum(x * x for x in col) for col in rhs.T.tolist()), default=0)
    # a zero column makes the product 0; rhs replaces the shortest column
    return prod(norms) * max(1, -(-widest // max(1, min(norms, default=1))))


def coordinates(basis, pivots, targets):
    """Coordinates of integer target rows over independent integer basis
    rows, as integer rows over one positive denominator: (den, coords, inside).

    pivots are columns on which the basis is nonsingular: block =
    basis[:, pivots]^T.  block X = targets[:, pivots]^T is solved modulo
    word-size primes, by eliminate on [block | rhs] pivoting in block's
    columns (a prime that divides det(block) is skipped), the
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
    square, k = _hadamard_square(block, rhs), len(block)
    # once m > 2 H^2 every true numerator and den is within sqrt(m / 2)
    certain = 2 * square
    residues, m, skipped = None, 1, 1
    for p in word_primes():
        reduced, rows, _ = eliminate(np.concatenate([block, rhs], axis=1), p, k)
        x = reduced[rows, k:]
        if len(rows) < k:
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
