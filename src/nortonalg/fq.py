"""Dense linear algebra over prime fields Z/q.

Vectors are tuples of ints in 0..q-1; subspaces are canonically represented
by their reduced row echelon form, a tuple of row tuples (the zero subspace
is the empty tuple).  q must be prime.
"""

from __future__ import annotations


def inv_mod(a: int, q: int) -> int:
    return pow(a % q, q - 2, q)


def primitive_root(q: int) -> int:
    """The least generator of the multiplicative group of Z/q."""
    order, factors, m, p = q - 1, [], q - 1, 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return next(
        w for w in range(1, q) if all(pow(w, order // f, q) != 1 for f in factors)
    )


def rref(rows, q: int) -> tuple:
    """Reduced row echelon form; zero rows dropped, rows as tuples."""
    m = [list(r) for r in rows]
    if not m:
        return ()
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][c] % q:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = inv_mod(m[rank][c], q)
        m[rank] = [(x * inv) % q for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] % q:
                f = m[i][c]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[rank])]
        rank += 1
    return tuple(tuple(x % q for x in row) for row in m[:rank])


def reduce_vector(v, rref_rows, q: int) -> tuple:
    """Residue of v after elimination against an rref basis."""
    v = [x % q for x in v]
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            f = v[lead]
            v = [(a - f * b) % q for a, b in zip(v, row)]
    return tuple(v)


def in_span(v, rref_rows, q: int) -> bool:
    return not any(reduce_vector(v, rref_rows, q))


def span_le(a_rref, b_rref, q: int) -> bool:
    """Whether the row space of a is contained in the row space of b."""
    return all(in_span(row, b_rref, q) for row in a_rref)


def intersect(a_rref, b_rref, q: int) -> tuple:
    """Intersection of two row spaces (Zassenhaus), as an rref basis."""
    if not a_rref or not b_rref:
        return ()
    n = len(a_rref[0])
    aug = [tuple(r) + tuple(r) for r in a_rref]
    aug += [tuple(r) + (0,) * n for r in b_rref]
    reduced = rref(aug, q)
    inter = [row[n:] for row in reduced if not any(row[:n])]
    return rref(inter, q)

