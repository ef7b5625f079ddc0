"""Johnson, Grassmann, Hamming, and dual polar graphs with ranked lattices.

Each builder returns a graph instance (explicit vertex list and exact
distance matrix) together with the graded lattice whose top level is the
vertex set and whose lower levels index the eigenspace spanning vectors:
subsets of size <= k, subspaces of dimension <= k, partial words, or
isotropic subspaces, each with an adjoined maximum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import fq
from .errors import BudgetExceededError, ConstructionError, NotDistanceRegularError

DEFAULT_VERTEX_BUDGET = 10 ** 4


class _Top:
    """Adjoined lattice maximum; a single shared sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<top>"


TOP = _Top()


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class JohnsonFamily:
    n: int
    k: int

    def label(self):
        return f"J({self.n},{self.k})"


@dataclass(frozen=True)
class GrassmannFamily:
    q: int
    n: int
    k: int

    def label(self):
        return f"J_{self.q}({self.n},{self.k})"


@dataclass(frozen=True)
class HammingFamily:
    d: int
    e: int

    def label(self):
        return f"H({self.d},{self.e})"


DUAL_POLAR_KINDS = ("C", "B", "D", "Dplus")

# Witt-type exponent: the eigenvalue and size formulas use q^e.
_DUAL_POLAR_E = {"C": 1, "B": 1, "D": 0, "Dplus": 2}


@dataclass(frozen=True)
class DualPolarFamily:
    kind: str
    d: int
    q: int

    @property
    def e(self) -> int:
        return _DUAL_POLAR_E[self.kind]

    def label(self):
        if self.kind == "Dplus":
            return f"D{self.d + 1}({self.q})^+"
        return f"{self.kind}{self.d}({self.q})"


@dataclass(frozen=True)
class CustomFamily:
    """Tag for hand-made test fixtures; no closed forms attach to it."""

    name: str

    def label(self):
        return self.name


# ---------------------------------------------------------------------------
# q-integers


def q_int(m: int, q: int) -> int:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return (q ** m - 1) // (q - 1)


def q_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ConstructionError(f"[{n} choose {k}]_{q}: {num} not divisible by {den}")
    return num // den


# ---------------------------------------------------------------------------
# lattices


class RankedLattice:
    """Graded lattice L_0 | ... | L_D plus the adjoined maximum TOP."""

    top = TOP

    def __init__(self, levels):
        self.levels = tuple(tuple(lv) for lv in levels)
        self._rank = {}
        for i, lv in enumerate(self.levels):
            for el in lv:
                self._rank[el] = i

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def rank_of(self, el):
        """Level index of an element; None for the adjoined maximum."""
        if el is TOP:
            return None
        return self._rank[el]

    def all_elements(self):
        for lv in self.levels:
            yield from lv
        yield TOP

    # subclasses implement the order on proper elements
    def _leq(self, a, b):
        raise NotImplementedError

    def _meet(self, a, b):
        raise NotImplementedError

    def _join(self, a, b):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        if b is TOP:
            return True
        if a is TOP:
            return False
        return self._leq(a, b)

    def meet(self, a, b):
        if a is TOP:
            return b
        if b is TOP:
            return a
        return self._meet(a, b)

    def join(self, a, b):
        if a is TOP or b is TOP:
            return TOP
        return self._join(a, b)


class SubsetLattice(RankedLattice):
    """Subsets of {1..n} of size <= k; joins exceeding k fall to TOP."""

    def __init__(self, n, k):
        self.n = n
        self.k = k
        levels = [
            tuple(itertools.combinations(range(1, n + 1), i)) for i in range(k + 1)
        ]
        super().__init__(levels)

    def _leq(self, a, b):
        return set(a) <= set(b)

    def _meet(self, a, b):
        return tuple(sorted(set(a) & set(b)))

    def _join(self, a, b):
        u = sorted(set(a) | set(b))
        return tuple(u) if len(u) <= self.k else TOP


class WordLattice(RankedLattice):
    """Partial words: letters 1..e or 0 (blank); u <= v when the nonzero
    letters of u all agree with v.  Conflicting joins fall to TOP."""

    def __init__(self, d, e):
        self.d = d
        self.e = e
        levels = []
        for i in range(d + 1):
            lv = []
            for pos in itertools.combinations(range(d), i):
                for vals in itertools.product(range(1, e + 1), repeat=i):
                    w = [0] * d
                    for p, v in zip(pos, vals):
                        w[p] = v
                    lv.append(tuple(w))
            levels.append(tuple(sorted(lv)))
        super().__init__(levels)

    def _leq(self, a, b):
        return all(x == 0 or x == y for x, y in zip(a, b))

    def _meet(self, a, b):
        return tuple(x if x == y else 0 for x, y in zip(a, b))

    def _join(self, a, b):
        out = []
        for x, y in zip(a, b):
            if x and y and x != y:
                return TOP
            out.append(x if x else y)
        return tuple(out)


class SubspaceLattice(RankedLattice):
    """Subspaces of F_q^n of dimension <= k, in reduced row echelon form."""

    def __init__(self, q, n, k, levels):
        self.q = q
        self.n = n
        self.k = k
        super().__init__(levels)

    def _leq(self, a, b):
        return fq.span_le(a, b, self.q)

    def _meet(self, a, b):
        return fq.intersect(a, b, self.q)

    def _join(self, a, b):
        r = fq.rref(a + b, self.q)
        return r if len(r) <= self.k else TOP


class IsotropicLattice(RankedLattice):
    """Isotropic subspaces of a symplectic or quadratic space, rref form."""

    def __init__(self, q, levels, polar, quad):
        self.q = q
        self._polar = polar
        self._quad = quad
        super().__init__(levels)

    def _is_isotropic(self, rows):
        q = self.q
        if self._quad is not None and any(self._quad(r) % q for r in rows):
            return False
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if self._polar(rows[i], rows[j]) % q:
                    return False
        return True

    def _leq(self, a, b):
        return fq.span_le(a, b, self.q)

    def _meet(self, a, b):
        return fq.intersect(a, b, self.q)

    def _join(self, a, b):
        r = fq.rref(a + b, self.q)
        if len(r) > self.depth or not self._is_isotropic(r):
            return TOP
        return r


# ---------------------------------------------------------------------------
# graph instances


@dataclass(eq=False)
class GraphInstance:
    family: object
    vertices: tuple
    dist: np.ndarray
    diameter: int
    lattice: RankedLattice | None
    notes: tuple = ()
    _index: dict = field(default=None, repr=False)
    _intersection: IntersectionArray = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def index(self, vertex) -> int:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index[vertex]

    def label(self) -> str:
        return self.family.label()


def graph_from_distance_matrix(name: str, dist) -> GraphInstance:
    """Test-fixture constructor; no lattice, no closed forms."""
    d = np.asarray(dist, dtype=np.int64)
    return GraphInstance(
        family=CustomFamily(name),
        vertices=tuple(range(d.shape[0])),
        dist=d,
        diameter=int(d.max()),
        lattice=None,
    )


def _check_budget(count, budget):
    if count > budget:
        raise BudgetExceededError("vertices", count, budget)


def _distance_matrix(vertices, dist_fn):
    nv = len(vertices)
    dist = np.zeros((nv, nv), dtype=np.int64)
    for i in range(nv):
        for j in range(i + 1, nv):
            dij = dist_fn(vertices[i], vertices[j])
            dist[i, j] = dij
            dist[j, i] = dij
    return dist


def build_johnson(n: int, k: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Johnson graph J(n,k): k-subsets of {1..n}, d(x,y) = k - |x n y|.

    Callers passing k > n/2 get the isomorphic complement J(n, n-k).
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= k <= n-1, got ({n},{k})")
    notes = ()
    if 2 * k > n:
        notes = (f"normalized from J({n},{k}) by complementation",)
        k = n - k
    _check_budget(comb(n, k), budget)
    vertices = tuple(itertools.combinations(range(1, n + 1), k))
    sets = [frozenset(v) for v in vertices]
    dist = _distance_matrix(sets, lambda x, y: k - len(x & y))
    lattice = SubsetLattice(n, k)
    g = GraphInstance(JohnsonFamily(n, k), vertices, dist, k, lattice, notes)
    return g


def build_hamming(d: int, e: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Hamming graph H(d,e): words of length d over {1..e}, Hamming distance."""
    if d < 1 or e < 2:
        raise ValueError(f"need d >= 1 and e >= 2, got ({d},{e})")
    _check_budget(e ** d, budget)
    vertices = tuple(itertools.product(range(1, e + 1), repeat=d))
    dist = _distance_matrix(
        vertices, lambda x, y: sum(a != b for a, b in zip(x, y))
    )
    lattice = WordLattice(d, e)
    g = GraphInstance(HammingFamily(d, e), vertices, dist, d, lattice)
    return g


def _rref_matrices(n: int, j: int, q: int):
    """All rref matrices with j rows and n columns over F_q."""
    if j == 0:
        return [()]
    out = []
    for pivots in itertools.combinations(range(n), j):
        free = []
        for r, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    free.append((r, c))
        for vals in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(j)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free, vals):
                rows[r][c] = v
            out.append(tuple(tuple(row) for row in rows))
    return out


def _require_level_size(subspaces, n, j, q):
    want = q_binomial(n, j, q)
    if len(subspaces) != want:
        raise ConstructionError(
            f"{len(subspaces)} subspaces of dimension {j} in F_{q}^{n}, expected {want}"
        )


def build_grassmann(q: int, n: int, k: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Grassmann graph J_q(n,k): k-dim subspaces of F_q^n, d = k - dim(x n y)."""
    if not fq.is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    if k < 2 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 4, got ({n},{k})")
    _check_budget(q_binomial(n, k, q), budget)
    vertices = tuple(sorted(_rref_matrices(n, k, q)))
    _require_level_size(vertices, n, k, q)
    dist = _distance_matrix(
        vertices, lambda x, y: fq.rank(x + y, q) - k
    )
    levels = [tuple(sorted(_rref_matrices(n, j, q))) for j in range(k + 1)]
    for j, lv in enumerate(levels):
        _require_level_size(lv, n, j, q)
    lattice = SubspaceLattice(q, n, k, levels)
    g = GraphInstance(GrassmannFamily(q, n, k), vertices, dist, k, lattice)
    return g


def _dual_polar_form(kind: str, d: int, q: int):
    """Ambient dimension, polar form, and quadratic form for one kind.

    C: symplectic on F_q^2d (every vector singular).
    B: quadratic x_0^2-type term plus d hyperbolic pairs on F_q^(2d+1).
    D: d hyperbolic pairs on F_q^2d.
    Dplus: d hyperbolic pairs plus an anisotropic binary block on F_q^(2d+2),
    Witt index d either way.
    """
    if kind == "C":
        nvars = 2 * d

        def polar(x, y):
            return sum(x[i] * y[d + i] - x[d + i] * y[i] for i in range(d))

        return nvars, polar, None

    if kind == "B":
        nvars = 2 * d + 1
        pairs = [(i, d + i) for i in range(d)]
        squares = [2 * d]
    elif kind == "D":
        nvars = 2 * d
        pairs = [(i, d + i) for i in range(d)]
        squares = []
    elif kind == "Dplus":
        nvars = 2 * d + 2
        pairs = [(i, d + i) for i in range(d)]
        squares = []
    else:
        raise ValueError(f"unknown dual polar kind {kind!r}")

    aniso = None
    if kind == "Dplus":
        # x^2 + a*x*y + b*y^2 irreducible over F_q, smallest (a, b).
        for a in range(q):
            for b in range(1, q):
                if all((t * t + a * t + b) % q for t in range(q)):
                    aniso = (a, b)
                    break
            if aniso:
                break
        if aniso is None:
            raise ConstructionError(f"no anisotropic binary form over F_{q}")

    def quad(x):
        s = sum(x[i] * x[j] for i, j in pairs)
        for i in squares:
            s += x[i] * x[i]
        if aniso is not None:
            u, v = x[nvars - 2], x[nvars - 1]
            s += u * u + aniso[0] * u * v + aniso[1] * v * v
        return s

    def polar(x, y):
        # Q(x+y) - Q(x) - Q(y), bilinear in every characteristic.
        return quad([a + b for a, b in zip(x, y)]) - quad(x) - quad(y)

    return nvars, polar, quad


def dual_polar_vertex_count(kind: str, d: int, q: int) -> int:
    e = _DUAL_POLAR_E[kind]
    out = 1
    for i in range(1, d + 1):
        out *= q ** (e + i - 1) + 1
    return out


def build_dual_polar(kind: str, d: int, q: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Dual polar graph on the maximal isotropic subspaces of one form.

    Vertices are the d-dim isotropic subspaces, d(x,y) = d - dim(x n y); the
    lattice consists of all isotropic subspaces plus an adjoined maximum.
    """
    if kind not in DUAL_POLAR_KINDS:
        raise ValueError(f"kind must be one of {DUAL_POLAR_KINDS}, got {kind!r}")
    if d < 2:
        raise ValueError("need d >= 2")
    if not fq.is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    _check_budget(dual_polar_vertex_count(kind, d, q), budget)

    nvars, polar, quad = _dual_polar_form(kind, d, q)
    all_vectors = itertools.product(range(q), repeat=nvars)
    singular = [
        v for v in all_vectors if any(v) and (quad is None or quad(v) % q == 0)
    ]

    levels = [((),)]
    for _ in range(d):
        nxt = set()
        for sub in levels[-1]:
            for v in singular:
                if fq.in_span(v, sub, q):
                    continue
                if all(polar(v, b) % q == 0 for b in sub):
                    nxt.add(fq.rref(sub + (v,), q))
        if not nxt:
            raise ConstructionError(f"Witt index below {d} for {kind}_{d}({q})")
        levels.append(tuple(sorted(nxt)))

    vertices = levels[d]
    expected = dual_polar_vertex_count(kind, d, q)
    if len(vertices) != expected:
        raise ConstructionError(
            f"enumerated {len(vertices)} maximal isotropics, formula says {expected}"
        )
    # maximality: no singular vector extends a vertex
    for sub in vertices:
        for v in singular:
            if not fq.in_span(v, sub, q) and all(
                polar(v, b) % q == 0 for b in sub
            ):
                raise ConstructionError("isotropic subspace of dimension d+1 found")

    dist = _distance_matrix(vertices, lambda x, y: fq.rank(x + y, q) - d)
    lattice = IsotropicLattice(q, levels, polar, quad)
    fam = DualPolarFamily(kind, d, q)
    notes = ()
    if (kind, d, q) == ("D", 2, 2):
        notes = ("exceptional case D_2(2): complete bipartite K_{3,3}",)
    g = GraphInstance(fam, vertices, dist, d, lattice, notes)
    return g


# ---------------------------------------------------------------------------
# distance regularity


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection numbers p[i][j][k] of a distance regular graph."""

    p: np.ndarray

    def value(self, i: int, j: int, k: int) -> int:
        return int(self.p[i, j, k])

    @property
    def degree(self) -> int:
        return self.value(1, 1, 0)


def check_distance_regular(g: GraphInstance) -> IntersectionArray:
    """Verify p[i][j][k] well-defined for every i, j, k; witness on failure.

    For each pair (x,y) at distance k the number of z with d(x,z) = i and
    d(z,y) = j must not depend on the pair.  The proved array is kept on the
    instance (whose distance matrix never changes after construction), so a
    second check of the same graph costs nothing.  A symmetric distance
    matrix gives A_j A_i = (A_i A_j)^T and symmetric distance classes, so
    only the products with i <= j are computed and p[j][i] is p[i][j].
    """
    if g._intersection is not None:
        return g._intersection
    dmax = g.diameter
    dist = g.dist
    if not np.array_equal(dist, dist.T):
        raise ConstructionError(f"{g.label()}: distance matrix is not symmetric")
    shells = [(dist == i).astype(np.int64) for i in range(dmax + 1)]
    masks = [dist == k for k in range(dmax + 1)]
    pair_of = []
    for k in range(dmax + 1):
        xs, ys = np.nonzero(masks[k])
        if len(xs) == 0:
            raise ConstructionError(f"no pair at distance {k}")
        pair_of.append((xs, ys))
    p = np.zeros((dmax + 1, dmax + 1, dmax + 1), dtype=np.int64)
    for i in range(dmax + 1):
        for j in range(i, dmax + 1):
            counts = shells[i] @ shells[j]
            for k in range(dmax + 1):
                vals = counts[masks[k]]
                ref = vals[0]
                if not np.all(vals == ref):
                    xs, ys = pair_of[k]
                    bad = int(np.nonzero(vals != ref)[0][0])
                    raise NotDistanceRegularError(
                        i,
                        j,
                        k,
                        (int(xs[0]), int(ys[0])),
                        (int(xs[bad]), int(ys[bad])),
                        int(ref),
                        int(vals[bad]),
                    )
                p[i, j, k] = p[j, i, k] = int(ref)
    g._intersection = IntersectionArray(p)
    return g._intersection
