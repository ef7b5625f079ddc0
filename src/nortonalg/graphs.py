"""Johnson, Grassmann, Hamming, and dual polar graphs with ranked lattices.

Each builder constructs a graded lattice (subsets of size <= k, subspaces of
dimension <= k, partial words, or isotropic subspaces, each with an adjoined
maximum) and derives the whole graph from it: the vertices are the top level
L_D, d(x,y) = D - rank(x meet y), and the level-1 elements (points) index
the eigenspace spanning vectors.  A lattice graph is its vertex-by-point
incidence matrix M and its point_counts: the points below x meet y are
those below x and y, counted by M M^T, so d = point_counts^-1[M M^T], and
the rows of M are the spanning vectors.  M is filled in whole-array
steps, with no order query: each lattice codes the points below the
elements of one level as one integer array (a subset's members, a word's
one-letter subwords base e+1, a subspace's echelon-row combinations whose
first nonzero coefficient is 1, base q), and one searchsorted against the
points' own strictly ascending codes turns the codes into columns.  Rows
of d are exact products against M^T (RightFactor, which bounds and casts
it once); the whole n x n g.dist, read-only int8, is formed in row blocks
only where it is read, on the every-row route of check_distance_regular.

The Grassmann and dual polar lattices come from one enumerator of the
subspaces of F_q^n (_subspace_levels).  It grows each subspace's reduced
row echelon form by one new last row, so every subspace is made exactly
once and already canonical; with a form it keeps only the totally isotropic
ones, and the dual polar build asks for one level past d, which must be
empty.  Every level is checked against its closed-form size.

Each builder refuses more vertices than its budget before it forms
anything large: first from exact lower bounds on the count (e^d >= 2^d, e;
C(n,k) >= 2^k, n for k <= n/2; [n k]_q >= q^(k(n-k)); the dual polar count
>= 2^d), then from the exact count, formed only once the bounds are within
the budget.  q is tested for primality once q itself is within the budget.

check_distance_regular proves a graph distance regular from the numbers
c_k, a_k, b_k of neighbours of y at distance k-1, k, k+1 from x
(Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 4.1), and derives every
p^k_ij from them by the three-term recurrence A_1 A_i = b_{i-1} A_{i-1} +
a_i A_i + c_{i+1} A_{i+1}.  The Johnson, Hamming and Grassmann lattices
offer a few candidate point permutations (generator_images); once the
check has proved them automorphisms of M whose group is transitive on the
vertices, it reads the pairs (x, 0) alone: the rows of vertex 0 and of its
neighbours.  Otherwise it reads every pair, by one neighbour gather per
row block of the whole matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb, prod

import numpy as np

from . import fq
from .errors import (
    BudgetExceededError,
    ConstructionError,
    NotDistanceRegularError,
    NotPathMetricError,
)
from .intlinalg import INT64_MAX, RightFactor, is_prime, row_blocks

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
    """J(n, k), stored with k <= n/2: k > n/2 names the isomorphic complement J(n, n-k)."""

    n: int
    k: int

    def __post_init__(self):
        if 2 * self.k > self.n:
            object.__setattr__(self, "k", self.n - self.k)

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

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def _rank(self):
        return {el: i for i, lv in enumerate(self.levels) for el in lv}

    def rank_of(self, el):
        """Level index of an element; None for the adjoined maximum."""
        if el is TOP:
            return None
        return self._rank[el]

    def all_elements(self):
        for lv in self.levels:
            yield from lv
        yield TOP

    def point_codes(self, elements):
        """The points below some elements of one level, as integer codes.

        An int64 array with a row per element and a column per point below
        it.  Level 1 gives each point's own code, and those codes ascend
        strictly in level order.
        """
        raise NotImplementedError

    @cached_property
    def own_codes(self):
        """point_codes of the points themselves: one column, in level order."""
        return self.point_codes(self.levels[1])

    def generator_images(self):
        """Candidate automorphisms, as the codes of the points' images.

        An int64 array with a row per candidate and a column per point, in
        the code system of point_codes.  Nothing here is trusted:
        check_distance_regular uses the candidates only once it has proved
        them automorphisms of the graph.  A lattice with none gives an
        empty tuple.
        """
        return ()

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

    def point_codes(self, elements):
        # a subset's points are its members
        size = _common_size(elements, list(map(len, elements)))
        return _int_array(elements, (len(elements), size))

    def generator_images(self):
        # (1 2) and (1 2 ... n), which generate the symmetric group; a
        # point's code is its member
        points = self.own_codes[:, 0]
        return np.stack([np.where(points <= 2, 3 - points, points), points % self.n + 1])

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
        # product() runs in sorted order, so every level comes out sorted
        levels = [[] for _ in range(d + 1)]
        for w in itertools.product(range(e + 1), repeat=d):
            levels[d - w.count(0)].append(w)
        super().__init__(levels)

    def point_codes(self, elements):
        # a word's points are its one-letter subwords, read as numbers base e+1
        words = _int_array(elements, (len(elements), self.d))
        letters = words != 0
        size = _common_size(elements, letters.sum(axis=1).tolist())
        place = _place_values(self.e + 1, self.d)
        return (words * place)[letters].reshape(len(elements), size)

    def generator_images(self):
        # a letter cycle on the first coordinate and the cyclic shift of the
        # coordinates, whose conjugates cycle the letters of every one.  A
        # point is letter l at coordinate i, code l (e+1)^(d-1-i): the first
        # coordinate's points are those from (e+1)^(d-1) on, and the shift
        # sends the last coordinate's, below e+1, to the first
        base, points = self.e + 1, self.own_codes[:, 0]
        first = base ** (self.d - 1)
        return np.stack([
            np.where(points >= first, (points // first % self.e + 1) * first, points),
            np.where(points < base, points * first, points // base),
        ])

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


def _common_size(elements, sizes) -> int:
    """The one size (members, letters or rows) of some elements of a level.

    The size fixes how many points lie below an element, so elements of one
    level that differ in it are refused.
    """
    if sizes.count(sizes[0]) < len(sizes):
        odd = next(el for el, size in zip(elements, sizes) if size != sizes[0])
        raise ConstructionError(
            f"{odd} and {elements[0]} lie in one level but differ in the points below them"
        )
    return sizes[0]


def _int_array(rows, shape):
    """Integer tuples, each as long as the last axis, as one int64 array."""
    flat = itertools.chain.from_iterable(rows)
    return np.fromiter(flat, np.int64, prod(shape)).reshape(shape)


@cache
def _place_values(base: int, length: int):
    """base^(length-1), ..., base, 1 as int64: a point's digits, dotted with
    them, give its code, which is below base^length."""
    if base ** length > INT64_MAX:
        raise ConstructionError(f"point codes base {base} of length {length} pass int64")
    out = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    out.flags.writeable = False
    return out


@cache
def _leading_one_vectors(rank: int, q: int):
    """The vectors of F_q^rank whose first nonzero entry is 1, as rows."""
    vectors = np.array(list(itertools.product(range(q), repeat=rank)), dtype=np.int64)
    lead = vectors[np.arange(len(vectors)), np.argmax(vectors != 0, axis=1)]
    out = vectors[lead == 1]
    out.flags.writeable = False
    return out


def _extends_isotropic(rows, v, q, polar, quad):
    """Whether v extends the totally isotropic span of rows to a larger one.

    With no form every subspace counts as isotropic.  Otherwise v must be
    singular (quad(v) = 0; for a symplectic form, with quad None, every
    vector is) and orthogonal to every row, which makes Q vanish on the
    whole span: Q(sum a_i r_i) = sum a_i^2 Q(r_i) + sum_{i<j} a_i a_j B(r_i, r_j).
    """
    if polar is None:
        return True
    if quad is not None and quad(v) % q:
        return False
    return all(polar(v, r) % q == 0 for r in rows)


def _subspace_levels(n, top, q, polar=None, quad=None):
    """Levels 0..top of the subspaces of F_q^n, each a sorted tuple of rref
    matrices; with a polar form, only the totally isotropic subspaces.

    The first j rows of the rref of a (j+1)-space are the rref of a j-space,
    its parent; the last row is e_c plus any entries after column c, where c
    lies past the parent's pivots in a column where every parent row
    vanishes.  Growing every parent by every such row therefore makes each
    space exactly once, already in rref.  A space is isotropic exactly when
    its parent is and the new row extends it (_extends_isotropic).
    """
    levels = [((),)]
    for _ in range(top):
        children = []
        for parent in levels[-1]:
            # an rref row's first nonzero entry is its pivot, a 1
            start = parent[-1].index(1) + 1 if parent else 0
            for c in range(start, n):
                if any(row[c] for row in parent):
                    continue
                for tail in itertools.product(range(q), repeat=n - c - 1):
                    v = (0,) * c + (1,) + tail
                    if _extends_isotropic(parent, v, q, polar, quad):
                        children.append(parent + (v,))
        levels.append(tuple(sorted(children)))
    return levels


class SubspaceLattice(RankedLattice):
    """Subspaces of F_q^n in reduced row echelon form, one level per dimension.

    With a polar form (and, for an orthogonal space, its quadratic form) the
    levels hold the totally isotropic subspaces only.  A join of higher
    dimension than the top level, or not isotropic, is the adjoined maximum.
    """

    def __init__(self, q, levels, polar=None, quad=None):
        self.q = q
        self._polar = polar
        self._quad = quad
        super().__init__(levels)

    def point_codes(self, elements):
        # row i plus any combination of the later rows is a point's rref,
        # read as a number base q
        rank = _common_size(elements, list(map(len, elements)))
        if not rank:
            return np.zeros((len(elements), 0), dtype=np.int64)
        n = len(elements[0][0])
        rows = _int_array(itertools.chain.from_iterable(elements), (len(elements), rank, n))
        spans = (_leading_one_vectors(rank, self.q) @ rows) % self.q
        return spans @ _place_values(self.q, n)

    def generator_images(self):
        # the permutation matrices of (1 2) and (1 2 ... n), the transvection
        # I + E_12 and, for q > 2, diag(w, 1, ..., 1) with w primitive
        # generate GL(n, q), acting on the points' rows from the right.  They
        # do not keep a polar form, so a dual polar lattice gets none.
        points = self.levels[1]
        n = len(points[0][0]) if points else 0
        if self._polar is not None or n < 2:
            return ()
        q, codes = self.q, self.own_codes[:, 0]
        # a point's code is its normalized row read base q, so its first
        # entry x is 0 or 1; y is its second entry and z its last.  The
        # images, each by arithmetic on the codes: x and y trade places, z
        # moves to the front, y becomes x + y, and x becomes w x
        top, second = q ** (n - 1), q ** (n - 2)
        x, y, z = codes // top, codes // second % q, codes % q
        images = [
            codes + (y - x) * (top - second),
            codes // q + z * top,
            codes + ((x + y) % q - y) * second,
        ]
        if q == 2:
            # every nonzero entry is 1, so every image is normalized
            return np.stack(images)
        w = fq.primitive_root(q)
        images.append(codes + (w - 1) * x * top)
        # scale each image by the inverse of its first nonzero entry, the
        # leading digit of its code
        images, place = np.stack(images), _place_values(q, n)
        lead = images // place[::-1][np.searchsorted(place[::-1], images, side="right") - 1]
        inverse = np.array([0] + [fq.inv_mod(a, q) for a in range(1, q)])
        return (images[..., None] // place % q) * inverse[lead][..., None] % q @ place

    def _leq(self, a, b):
        return fq.span_le(a, b, self.q)

    def _meet(self, a, b):
        return fq.intersect(a, b, self.q)

    def _join(self, a, b):
        r = fq.rref(a + b, self.q)
        if len(r) > self.depth or not all(
            _extends_isotropic(r[:i], r[i], self.q, self._polar, self._quad)
            for i in range(len(r))
        ):
            return TOP
        return r


# ---------------------------------------------------------------------------
# graph instances


@dataclass(eq=False)
class GraphInstance:
    family: object
    vertices: tuple
    diameter: int
    lattice: RankedLattice | None
    notes: tuple = ()
    # incidence[x, p] = 1 iff point p (lattice.levels[1][p]) lies below vertex x
    incidence: np.ndarray | None = field(default=None, repr=False)
    # point_counts[i] points lie below x meet y when d(x, y) = i, so
    # incidence @ incidence.T is point_counts[dist]
    point_counts: tuple | None = field(default=None, repr=False)
    # graph_from_distance_matrix's own int64 matrix; a lattice graph has none
    stored_dist: np.ndarray | None = field(default=None, repr=False)
    _intersection: IntersectionArray = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def label(self) -> str:
        return self.family.label()

    @cached_property
    def dist(self) -> np.ndarray:
        """The n x n distances: stored_dist, or a lattice graph's
        point_counts^-1[M M^T] as read-only int8, formed on first read."""
        return self.stored_dist if self.incidence is None else _distances(self)


def graph_from_distance_matrix(name: str, dist) -> GraphInstance:
    """Test-fixture constructor; no lattice, no closed forms."""
    d = np.asarray(dist, dtype=np.int64)
    return GraphInstance(
        family=CustomFamily(name),
        vertices=tuple(range(d.shape[0])),
        diameter=int(d.max()),
        lattice=None,
        stored_dist=d,
    )


def distance_row(g: GraphInstance, x: int) -> np.ndarray:
    """A lattice graph's d(x, y) for every vertex y, with no n x n matrix."""
    return _distance_rows(g)([x])[0]


def _check_budget(budget, floors, count=None):
    """Refuse more than budget vertices, first from exact lower bounds.

    floors lists pairs (base, exp), base >= 2, with base^exp at most the
    vertex count.  A floor is formed only when base <= budget and exp <
    budget.bit_length(), since otherwise it exceeds the budget, so none is
    formed past budget^bit_length(budget).  count forms the exact count,
    and runs only once every floor is within the budget.
    """
    for base, exp in floors:
        if base > budget or exp >= budget.bit_length() or base ** exp > budget:
            needed = base if exp == 1 else f"{base}^{exp}"
            raise BudgetExceededError("vertices", f"at least {needed}", budget)
    needed = count() if count else 0
    if needed > budget:
        raise BudgetExceededError("vertices", needed, budget)


def _require_prime(q: int, budget: int):
    """Refuse a q that is not prime.  Every family over F_q has more than q
    vertices, so a q past the budget is refused first; Miller-Rabin decides
    the rest in a few modular powers."""
    if q >= 2:
        _check_budget(budget, [(q, 1)])
    if not is_prime(q):
        raise ValueError(f"q = {q} must be prime")


def _lattice_graph(family, lattice: RankedLattice, notes=()) -> GraphInstance:
    """The graph on the top level L_D of a lattice, d(x,y) = D - rank(x meet y).

    Every element of one level has the same number of points below it, so
    that count, read from one element per level, names the rank of x meet y
    as long as no two levels share it.  The graph keeps M and those counts
    and forms no distances: M's row sums, the diagonal of M M^T, must name 0.
    """
    vertices = lattice.levels[-1]
    points = lattice.levels[1]
    depth = lattice.depth
    own = lattice.own_codes
    if own.shape != (len(points), 1) or (own[1:] <= own[:-1]).any():
        raise ConstructionError(
            f"{family.label()}: the points' own codes are not one strictly ascending column"
        )
    # a row per vertex, then per level's first element from the top down; a
    # last column marks any code that names no point
    elements = vertices + tuple(lv[0] for lv in lattice.levels[::-1])
    codes = [lattice.point_codes(vertices)]
    codes += [lattice.point_codes(lv[:1]) for lv in lattice.levels[::-1]]
    flat = np.concatenate([c.ravel() for c in codes])
    own = own[:, 0]
    cols = np.searchsorted(own, flat)
    cols[np.take(own, cols, mode="clip") != flat] = len(points)
    widths = np.repeat([c.shape[1] for c in codes], [len(c) for c in codes])
    rows = np.zeros((len(elements), len(points) + 1), dtype=np.int64)
    rows[np.repeat(np.arange(len(elements)), widths), cols] = 1
    if rows[:, -1].any():
        x = elements[np.argmax(rows[:, -1])]
        raise ConstructionError(f"{family.label()}: a point code below {x} names no point")
    incidence = np.ascontiguousarray(rows[: len(vertices), :-1])
    # counts[i]: the points below an element of rank D - i
    counts = tuple(rows[len(vertices) :, :-1].sum(axis=1).tolist())
    if len(set(counts)) < len(counts):
        raise ConstructionError(
            f"{family.label()}: two levels have the same number of points below, {counts}"
        )
    # int8 holds the distances 0..D while D <= 127
    if depth > 127:
        raise ConstructionError(f"{family.label()}: diameter {depth} too large for int8 distances")
    diagonal = _dist_of_count(counts, len(points))[incidence.sum(axis=1)]
    if diagonal.min() < 0:
        raise ConstructionError(_UNEVEN.format(family.label()))
    if np.count_nonzero(diagonal):
        i = int(np.flatnonzero(diagonal)[0])
        raise ConstructionError(
            f"{family.label()}: vertex {vertices[i]} is at distance {diagonal[i]} from itself"
        )
    return GraphInstance(family, vertices, depth, lattice, notes, incidence, counts)


# the refusal of a count of shared points that names no distance
_UNEVEN = "{}: elements of one level differ in the points below them"


def _dist_of_count(counts, points):
    """The int8 table from a count 0..points of shared points to the distance
    it names, -1 where it names none; counts[i] names distance i."""
    table = np.full(points + 1, -1, dtype=np.int8)
    table[list(counts)] = np.arange(len(counts))
    return table


def _distance_rows(g):
    """rows -> point_counts^-1[M[rows] M^T] as int8: per call one exact
    product against the fixed factor M^T, bounded and cast once."""
    # the entries are 0/1: from an int8 copy, the bounds and float copies
    # read one byte per entry, not eight
    m = g.incidence.astype(np.int8)
    table = _dist_of_count(g.point_counts, m.shape[1])
    gram = RightFactor(m.T)
    # every count is 0..points, inside the table, so no index is clipped
    return lambda rows: np.take(table, gram.times(m[rows]), mode="clip")


def _distances(g):
    """A lattice graph's read-only int8 distances, a row block at a time, so
    beside its n^2 bytes it holds one block's arrays; a count naming no
    distance is refused."""
    n, rows_of = g.vertex_count, _distance_rows(g)
    dist = np.empty((n, n), dtype=np.int8)
    for rows in row_blocks(n, n):
        dist[rows] = rows_of(rows)
    if dist.min() < 0:
        raise ConstructionError(_UNEVEN.format(g.label()))
    dist.flags.writeable = False
    return dist


def build_johnson(n: int, k: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Johnson graph J(n,k): k-subsets of {1..n}, d(x,y) = k - |x n y|.

    Callers passing k > n/2 get the isomorphic complement J(n, n-k).
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= k <= n-1, got ({n},{k})")
    family = JohnsonFamily(n, k)
    notes = () if family.k == k else (f"normalized from J({n},{k}) by complementation",)
    # C(n,k) >= n, and >= C(2k,k) >= 2^k for k <= n/2
    _check_budget(budget, [(2, family.k), (n, 1)], lambda: comb(n, family.k))
    return _lattice_graph(family, SubsetLattice(n, family.k), notes)


def build_hamming(d: int, e: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Hamming graph H(d,e): words of length d over {1..e}, Hamming distance."""
    if d < 1 or e < 2:
        raise ValueError(f"need d >= 1 and e >= 2, got ({d},{e})")
    _check_budget(budget, [(2, d), (e, 1)], lambda: e ** d)
    return _lattice_graph(HammingFamily(d, e), WordLattice(d, e))


def _require_level_sizes(family, levels, closed_form):
    """Refuse an enumeration whose level j does not hold closed_form(j) spaces."""
    for j, lv in enumerate(levels):
        want = closed_form(j)
        if len(lv) != want:
            raise ConstructionError(
                f"{family.label()}: {len(lv)} subspaces of dimension {j}, "
                f"expected {want}"
            )


def build_grassmann(q: int, n: int, k: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Grassmann graph J_q(n,k): k-dim subspaces of F_q^n, d = k - dim(x n y)."""
    if k < 2 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 4, got ({n},{k})")
    _require_prime(q, budget)
    # q^(k(n-k)) is the leading term of [n k]_q, whose coefficients are >= 0
    _check_budget(budget, [(q, k * (n - k))], lambda: q_binomial(n, k, q))
    family = GrassmannFamily(q, n, k)
    levels = _subspace_levels(n, k, q)
    _require_level_sizes(family, levels, lambda j: q_binomial(n, j, q))
    return _lattice_graph(family, SubspaceLattice(q, levels))


def _dual_polar_form(kind: str, d: int, q: int):
    """Ambient dimension, polar form, and quadratic form for one kind.

    The form is a list of terms (i, j, c), c x_i x_j.  Every kind has the d
    pairs x_i x_{d+i}.  B adds x_2d^2 on F_q^(2d+1); D is the pairs alone on
    F_q^2d; Dplus adds the smallest irreducible x^2 + a x y + b y^2 on its
    last two coordinates of F_q^(2d+2), Witt index d either way.  C
    alternates the pairs on F_q^2d: symplectic, every vector singular, so no
    quadratic form.  The polar form is sum c (x_i y_j + sign x_j y_i), with
    sign -1 for C, and for the others Q(x+y) - Q(x) - Q(y).
    """
    if kind not in DUAL_POLAR_KINDS:
        raise ValueError(f"unknown dual polar kind {kind!r}")
    terms = [(i, d + i, 1) for i in range(d)]
    nvars = 2 * d
    if kind == "B":
        terms.append((nvars, nvars, 1))
        nvars += 1
    elif kind == "Dplus":
        aniso = next(
            ((a, b) for a in range(q) for b in range(1, q)
             if all((t * t + a * t + b) % q for t in range(q))),
            None,
        )
        if aniso is None:
            raise ConstructionError(f"no anisotropic binary form over F_{q}")
        u, v = nvars, nvars + 1
        terms += [(u, u, 1), (u, v, aniso[0]), (v, v, aniso[1])]
        nvars += 2
    sign = -1 if kind == "C" else 1

    def polar(x, y):
        return sum(c * (x[i] * y[j] + sign * x[j] * y[i]) for i, j, c in terms)

    def quad(x):
        return sum(c * x[i] * x[j] for i, j, c in terms)

    return nvars, polar, None if kind == "C" else quad


def isotropic_subspace_count(kind: str, d: int, q: int, i: int) -> int:
    """Totally isotropic i-spaces of the rank-d polar space of one kind:
    [d i]_q prod_{j<i} (q^(d+e-j-1) + 1) (Brouwer-Cohen-Neumaier 9.4), so
    0 for i > d."""
    e = _DUAL_POLAR_E[kind]
    out = q_binomial(d, i, q)
    for j in range(i):
        out *= q ** (d + e - j - 1) + 1
    return out


def dual_polar_vertex_count(kind: str, d: int, q: int) -> int:
    return isotropic_subspace_count(kind, d, q, d)


def build_dual_polar(kind: str, d: int, q: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Dual polar graph on the maximal isotropic subspaces of one form.

    Vertices are the d-dim isotropic subspaces, d(x,y) = d - dim(x n y); the
    lattice consists of all isotropic subspaces plus an adjoined maximum.
    The enumeration runs one level past d, which must be empty: that proves
    the vertices maximal, so the form's Witt index is exactly d.
    """
    if kind not in DUAL_POLAR_KINDS:
        raise ValueError(f"kind must be one of {DUAL_POLAR_KINDS}, got {kind!r}")
    if d < 2:
        raise ValueError("need d >= 2")
    _require_prime(q, budget)
    # each of the d factors q^(d+e-j-1) + 1 of the count is at least 2
    _check_budget(budget, [(2, d)], lambda: dual_polar_vertex_count(kind, d, q))

    family = DualPolarFamily(kind, d, q)
    nvars, polar, quad = _dual_polar_form(kind, d, q)
    levels = _subspace_levels(nvars, d + 1, q, polar, quad)
    _require_level_sizes(
        family, levels, lambda i: isotropic_subspace_count(kind, d, q, i)
    )
    notes = ()
    if (kind, d, q) == ("D", 2, 2):
        notes = ("exceptional case D_2(2): complete bipartite K_{3,3}",)
    lattice = SubspaceLattice(q, levels[:-1], polar, quad)
    return _lattice_graph(family, lattice, notes)


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


def _first(mask):
    """Index tuple of the first True entry of mask, in row-major order."""
    return tuple(int(v) for v in np.unravel_index(np.argmax(mask), mask.shape))


def _intersection_numbers(c, a, b):
    """p[i][j][k] = p^k_ij from c_k, a_k and b_k by the three-term recurrence.

    L_i[k][j] = p^k_ij is the matrix of multiplication by A_i in the basis
    A_0..A_D.  A_1 A_j = b_{j-1} A_{j-1} + a_j A_j + c_{j+1} A_{j+1} makes
    L_1 tridiagonal, and the same identity with A_i in place of A_j gives
    L_{i+1} = (L_1 L_i - b_{i-1} L_{i-1} - a_i L_i) / c_{i+1}, exactly.  p[i]
    is L_i transposed, so the recurrence runs on the transposes.
    """
    size = len(c)
    p = np.zeros((size, size, size), dtype=np.int64)
    p[0].reshape(-1)[:: size + 1] = 1
    if size > 1:
        # L_1^T has a on its diagonal, c above it and b below it
        one = p[1].reshape(-1)
        one[:: size + 1], one[1 :: size + 1], one[size :: size + 1] = a, c[1:], b[:-1]
    for i in range(1, size - 1):
        rest = p[i] @ p[1] - b[i - 1] * p[i - 1] - a[i] * p[i]
        nxt, left = np.divmod(rest, c[i + 1])
        if np.count_nonzero(left):
            raise ConstructionError(
                f"A_{i + 1} is not integral: c_{i + 1} = {c[i + 1]}"
            )
        p[i + 1] = nxt
    return p


def check_distance_regular(g: GraphInstance) -> IntersectionArray:
    """Prove g distance regular and return its intersection array.

    A connected graph is distance regular exactly when, for every pair
    (x, y) at distance k, the numbers c_k, a_k and b_k of neighbours of y at
    distance k-1, k and k+1 from x depend only on k (Brouwer-Cohen-Neumaier,
    Distance-Regular Graphs, 4.1).  On a set of pairs (x, y), the checks
    read d(x, z) for every neighbour z of y:

    * every neighbour z of y has |d(x,z) - d(x,y)| <= 1;
    * the per-pair counts c and a (so also b) are constant on each
      distance class;
    * c_k >= 1 for k >= 1.

    The first and last make d the path metric of the connected graph
    d == 1, so together they prove distance regularity.

    The route, which pairs the checks read, depends only on g.  When the
    candidate automorphisms of g's lattice pass _transitive_generators (a
    few whole-array steps), they keep M, so d = point_counts^-1[M M^T], and
    are transitive: one that takes y to 0 carries (x, y) to a pair (x', 0)
    with the same counts.  So the checks read the pairs (x, 0)
    alone (_vertex_0_counts), off the rows of vertex 0 and its k
    neighbours: O(k n P) work and no n x n array.  Otherwise one pass over
    row blocks of g.dist checks that it is symmetric, 0 exactly on the
    diagonal, largest at the diameter and of constant degree, and lists
    every vertex's neighbours, and one gather dist[x][nbrs] per row block
    reads every pair, O(k n^2) small-integer work.  Any refusal on vertex
    0's route reruns the every-row route, so a graph that fails gets the
    same error and witness either way.

    p[i][j][k] = p^k_ij then follows from (b_k, c_k) by the three-term
    recurrence (_intersection_numbers).  A path-metric failure raises
    NotPathMetricError naming the vertices; a count that differs between
    two pairs raises NotDistanceRegularError whose witness (i, 1, k) with i
    in {k-1, k, k+1} carries both pairs' p^k_i1.  The proved array is kept
    on the instance (whose distance matrix never changes after
    construction), so a second check of the same graph costs nothing.
    """
    if g._intersection is None:
        base = _transitive_generators(g)
        try:
            g._intersection = _intersection_array(g, base)
        except (ConstructionError, NotPathMetricError, NotDistanceRegularError):
            if not base:
                raise
            g._intersection = _intersection_array(g, False)
    return g._intersection


# an odd multiplier: point p weighs _KEY_BASE^(p+1) in a row's key, mod 2^64
_KEY_BASE = -7046029254386353131


def _orbit_is_everything(maps) -> bool:
    """Whether the orbit of vertex 0 under the rows of maps, permutations of
    the vertices, is every vertex.  A permutation's inverse is one of its
    powers, so the images of vertex 0 under words in the rows alone make up
    the orbit: one breadth-first pass from vertex 0 moves each vertex it
    reaches by every row, once."""
    maps = maps.tolist()
    seen = bytearray(len(maps[0]))
    seen[0] = 1
    reached = [0]
    # reached grows as the loop walks it, so each vertex is moved once
    for x in reached:
        for row in maps:
            y = row[x]
            if not seen[y]:
                seen[y] = 1
                reached.append(y)
    return len(reached) == len(seen)


def _transitive_generators(g) -> bool:
    """Whether the candidate automorphisms of g's lattice permute the
    vertices, with vertex 0's orbit every vertex.

    Each candidate of lattice.generator_images must permute the points'
    own codes; it names, by one search among them, a permutation pi of the
    points.  Moving the incidence rows by pi (the point pi(p) where there
    was p) must give the rows of a permutation sigma of the vertices.  Two
    integer products key every row and every moved row of every candidate
    at once, by the sum of its points' weights mod 2^64 (the moved row of x
    weighs M[x] . weight[pi]); one sort and one search match each moved key
    to a row's.  A key is only a hash, so the match is then proved exactly,
    a block of vertices at a time: M[sigma(x), pi(p)] == M[x, p] for every
    vertex x and point p.  The rows' keys are distinct, so the rows are, and
    each such sigma is one-to-one.  It keeps the Gram M M^T, so the
    distances point_counts^-1[M M^T], and is an automorphism.
    """
    lattice = g.lattice
    images = lattice.generator_images() if lattice is not None else ()
    if not len(images):
        return False
    own = lattice.own_codes[:, 0]
    # each candidate's images, sorted, must be the points' own codes
    if images.shape[1] != len(own) or np.count_nonzero(np.sort(images, axis=1) != own):
        return False
    pis, m = np.searchsorted(own, images), g.incidence
    # int64 products wrap, so every key is a sum mod 2^64
    weight = np.cumprod(np.full(len(own), _KEY_BASE, dtype=np.int64))
    keys, moved = m @ weight, weight[pis] @ m.T
    order = np.argsort(keys)
    ascending = keys[order]
    # distinct keys make the rows distinct, so each sigma that passes the
    # exact match below is one-to-one
    if np.count_nonzero(ascending[1:] == ascending[:-1]):
        return False
    sigma = order.take(np.searchsorted(ascending, moved), mode="clip")
    # a block of vertices at a time, each a row of points per candidate
    for rows in row_blocks(len(m), pis.size):
        if np.count_nonzero(m[sigma[:, rows, None], pis[:, None]] != m[rows]):
            return False
    return _orbit_is_everything(sigma)


def _diagonal(block, start):
    """A view of the entries (i, start + i) of a C-contiguous row block."""
    return block.reshape(-1)[start :: block.shape[1] + 1]


def _neighbours(g):
    """The degree k and the k x n array nbrs, nbrs[s, y] the s-th neighbour
    of y, after the whole-matrix checks of check_distance_regular, each
    read one row block at a time.

    A refusal is the one the checks name first in the order symmetry, a
    path distance below 1 (the first in row-major order), the largest
    distance, the degree.
    """
    dist, n = g.dist, g.vertex_count
    wrong, top, cols = None, 0, []
    degrees = np.empty(n, dtype=np.int64)
    for rows in row_blocks(n, n):
        here = dist[rows]
        if not np.array_equal(here, dist[:, rows].T):
            raise ConstructionError(f"{g.label()}: distance matrix is not symmetric")
        if wrong is None:
            bad = here < 1
            _diagonal(bad, rows.start)[:] = _diagonal(here, rows.start) != 0
            if np.count_nonzero(bad):
                bx, y = _first(bad)
                wrong = rows.start + bx, y
        top = max(top, int(here.max()))
        # one flat index array, not nonzero's row and column arrays
        xs, ys = np.divmod(np.flatnonzero(here == 1), n)
        degrees[rows] = np.bincount(xs, minlength=len(here))
        cols.append(ys)
    if wrong is not None:
        x, y = wrong
        raise NotPathMetricError(
            f"{g.label()}: d({x},{y}) = {dist[x, y]} is not a path distance", (x, y)
        )
    if top != g.diameter:
        raise ConstructionError(f"{g.label()}: largest distance {top}, diameter {g.diameter}")
    if np.count_nonzero(degrees != degrees[0]):
        x = int(np.argmax(degrees != degrees[0]))
        raise NotDistanceRegularError(
            1, 1, 0, (0, 0), (x, x), int(degrees[0]), int(degrees[x])
        )
    k = int(degrees[0])
    return k, np.ascontiguousarray(np.concatenate(cols).reshape(n, k).T)


def _intersection_array(g, base) -> IntersectionArray:
    """The checks of check_distance_regular on every row, or with base on
    the pairs (x, 0) alone."""
    c, a, k = _vertex_0_counts(g) if base else _every_row_counts(g)
    return IntersectionArray(_intersection_numbers(c, a, k - c - a))


def _vertex_0_counts(g):
    """c_k, a_k and the degree, read off the pairs (x, 0) once the candidate
    automorphisms have passed _transitive_generators.

    The candidates keep d and are transitive, so each row of d is row 0
    moved, and each pair (x, y) with the neighbours of y goes to a pair
    (x', 0) with those of 0.  So row 0 must be 0 at vertex 0 only and
    largest at the diameter, and the k x n array d(x, z) - d(x, 0) over
    vertex 0's neighbours z (their rows, as d is symmetric) must hold
    |step| <= 1, c and a constant on each distance class and c_k >= 1.
    Each refusal is a ConstructionError, and check_distance_regular reruns
    the every-row route for its own refusal.
    """
    dmax, rows_of = g.diameter, _distance_rows(g)
    row = rows_of([0])[0]
    if np.count_nonzero(row < 1) != 1 or row[0] or row.max() != dmax:
        raise ConstructionError(f"{g.label()}: vertex 0's distances are not a path metric's")
    nbrs = np.flatnonzero(row == 1)
    # step[s, x] = d(x, z) - d(x, 0) for z the s-th neighbour of vertex 0
    step = rows_of(nbrs) - row
    counts = np.stack([np.count_nonzero(step == v, axis=0) for v in (-1, 0)], axis=1)
    ref = np.zeros((dmax + 1, 2), dtype=np.int64)
    ref[row] = counts
    if (
        step.min(initial=0) < -1
        or step.max(initial=0) > 1
        or np.count_nonzero(ref[row] != counts)
        or not ref[1:, 0].all()
    ):
        raise ConstructionError(f"{g.label()}: vertex 0's row is not distance regular")
    return ref[:, 0], ref[:, 1], len(nbrs)


def _every_row_counts(g):
    """c_k, a_k and the degree, by the checks of check_distance_regular on
    every row block: one gather dist[x][nbrs] per block of rows x."""
    dist, dmax, n = g.dist, g.diameter, g.vertex_count
    k, nbrs = _neighbours(g)
    # below 127, distances and their differences fit int8; a lattice graph's
    # distances are int8 already
    small = dist.astype(np.int8, copy=False) if dmax < 127 else dist
    first = np.full((dmax + 1, 2), -1)  # the first pair of each distance class
    ref = np.zeros((dmax + 1, 2), dtype=np.int64)  # its c and a
    unmet = dmax + 1
    # a block's temporaries are a few arrays of rows x degree x n small integers
    for rows in row_blocks(n, n * max(k, 1)):
        start, here = rows.start, small[rows]
        # step[x, s, y] = d(x, z) - d(x, y) for z the s-th neighbour of y
        step = here[:, nbrs] - here[:, None, :]
        if step.min(initial=0) < -1 or step.max(initial=0) > 1:
            bx, s, y = _first(abs(step) > 1)
            x, z = start + bx, int(nbrs[s, y])
            raise NotPathMetricError(
                f"{g.label()}: neighbour {z} of {y} is at distance {dist[x, z]} "
                f"from {x}, but {y} is at distance {dist[x, y]}",
                (x, y, z),
            )
        # counts[x, y] = (c, a): the neighbours of y one step closer to x and
        # as far
        counts = np.stack([(step == v).sum(axis=1, dtype=np.int32) for v in (-1, 0)], axis=-1)
        stuck = (counts[..., 0] == 0) & (here > 0)
        if np.count_nonzero(stuck):
            bx, y = _first(stuck)
            x = start + bx
            raise NotPathMetricError(
                f"{g.label()}: no neighbour of {y} is closer to {x} than "
                f"d({x},{y}) = {dist[x, y]}",
                (x, y),
            )
        if unmet:
            # the first pair of each distance met here and in no earlier block
            met, at = np.unique(here, return_index=True)
            fresh = first[met, 0] < 0
            met, at = met[fresh], at[fresh]
            first[met, 0], first[met, 1] = np.divmod(at, n)
            first[met, 0] += start
            ref[met] = counts.reshape(-1, 2)[at]
            unmet -= len(met)
        off = counts != ref[here]
        if np.count_nonzero(off):
            col = int(np.count_nonzero(off[..., 0]) == 0)
            bx, y = _first(off[..., col])
            d = int(here[bx, y])
            raise NotDistanceRegularError(
                d - 1 + col,
                1,
                d,
                tuple(int(v) for v in first[d]),
                (start + bx, y),
                int(ref[d, col]),
                int(counts[bx, y, col]),
            )
    return ref[:, 0], ref[:, 1], k

