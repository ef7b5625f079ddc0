"""Exact spectral decomposition of distance regular graphs.

Everything runs on the (D+1)-point quotient given by the intersection array
that check_distance_regular proves (Brouwer-Cohen-Neumaier, Distance-Regular
Graphs, 4.1; Biggs, Algebraic Graph Theory, ch. 21).  An integer theta is an
eigenvalue exactly when its cosine sequence u_0 = 1, u_1 = theta/k,
c_i u_{i-1} + a_i u_i + b_i u_{i+1} = theta u_i also meets the last equation
c_D u_{D-1} + a_D u_D = theta u_D; rational eigenvalues of an integer matrix
are integers, so scanning theta = k..-k finds an integral spectrum and fewer
than D+1 hits reject an irrational one.  Multiplicities follow Biggs,
m_j = n / sum_i k_i u_i(theta_j)^2, and E_j = (m_j/n) sum_i u_i(theta_j) A_i
is D+1 rationals, expanded to an n x n matrix through the distance matrix
only on request.  All arithmetic is exact (ints and Fractions).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .errors import ConstructionError, NotDistanceRegularError, SpectralIntegralityError
from .graphs import (
    DualPolarFamily,
    GrassmannFamily,
    GraphInstance,
    HammingFamily,
    IntersectionArray,
    JohnsonFamily,
    check_distance_regular,
    q_binomial,
    q_int,
)


class RationalMatrix:
    """Exact rational matrix: integer numerators over one positive denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, normalize=True):
        self.num = np.asarray(num, dtype=object)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            self.num = -self.num
            den = -den
        self.den = den
        if normalize:
            g = gcd(self.den, *self.num.reshape(-1).tolist())
            if g > 1:
                self.num = self.num // g
                self.den //= g

    @classmethod
    def identity(cls, n):
        m = np.zeros((n, n), dtype=object)
        for i in range(n):
            m[i, i] = 1
        return cls(m)

    @classmethod
    def from_fraction_rows(cls, rows):
        den = 1
        for r in rows:
            for c in r:
                f = Fraction(c)
                den = den * f.denominator // gcd(den, f.denominator)
        num = [[int(Fraction(c) * den) for c in r] for r in rows]
        return cls(np.array(num, dtype=object), den)

    @property
    def shape(self):
        return self.num.shape

    def entry(self, i, j) -> Fraction:
        return Fraction(int(self.num[i, j]), self.den)

    def to_fraction_rows(self):
        return tuple(
            tuple(Fraction(int(v), self.den) for v in row)
            for row in self.num.tolist()
        )

    def __matmul__(self, other):
        return RationalMatrix(self.num @ other.num, self.den * other.den)

    def __add__(self, other):
        return RationalMatrix(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return RationalMatrix(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def scale(self, f) -> "RationalMatrix":
        f = Fraction(f)
        return RationalMatrix(self.num * f.numerator, self.den * f.denominator)

    def transpose(self):
        return RationalMatrix(self.num.transpose().copy(), self.den, normalize=False)

    def trace(self) -> Fraction:
        return Fraction(int(np.trace(self.num)), self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num.reshape(-1).tolist())

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.den == other.den and np.array_equal(self.num, other.num)

    def apply(self, vec):
        """Matrix times a vector of rationals, returned as Fractions."""
        if len(vec) != self.shape[1]:
            raise ValueError(f"expected vector of length {self.shape[1]}")
        v = np.array([Fraction(x) for x in vec], dtype=object)
        out = self.num @ v
        return tuple(Fraction(x, self.den) for x in out.tolist())

    def __repr__(self):
        return f"RationalMatrix(shape={self.shape}, den={self.den})"


# ---------------------------------------------------------------------------
# spectra


def adjacency_matrices(g: GraphInstance):
    """Distance-shell 0/1 matrices A_0 = I, A_1, ..., A_D as RationalMatrix."""
    return [
        RationalMatrix((g.dist == i).astype(int).astype(object), 1, normalize=False)
        for i in range(g.diameter + 1)
    ]


def _cosine_sequence(p, theta):
    """u_0..u_D of theta, or None when theta is not an eigenvalue.

    p is the intersection array as nested lists, p[i][j][k] = p^k_ij, so
    c_i = p[i-1][1][i], a_i = p[i][1][i] and b_i = p[i+1][1][i].
    """
    d = len(p) - 1
    u = [Fraction(1), Fraction(theta, p[1][1][0])]
    for i in range(1, d):
        rest = theta * u[i] - p[i - 1][1][i] * u[i - 1] - p[i][1][i] * u[i]
        u.append(rest / p[i + 1][1][i])
    if p[d - 1][1][d] * u[d - 1] + p[d][1][d] * u[d] != theta * u[d]:
        return None
    return u


def _integer_row(coeffs):
    """(numerators, den): coeffs over the lcm of their denominators, gcd 1."""
    den = lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


def _times_matrix(p, x):
    """M[b][k], the coordinates of (sum_a x_a A_a) A_b in the basis A_0..A_D."""
    r = range(len(p))
    return [[sum(x[a] * p[a][b][k] for a in r if x[a]) for k in r] for b in r]


class _DenseIdempotents(Sequence):
    """E_0..E_D as n x n RationalMatrix, each expanded on first access."""

    def __init__(self, graph: GraphInstance, coefficients):
        self._graph = graph
        self._coefficients = coefficients
        self._built = [None] * len(coefficients)

    def __len__(self):
        return len(self._built)

    def __getitem__(self, j):
        if self._built[j] is None:
            # all distances 0..D occur, so this is also the dense normal form
            num, den = _integer_row(self._coefficients[j])
            dense = np.array(num, dtype=object)[self._graph.dist]
            self._built[j] = RationalMatrix(dense, den, normalize=False)
        return self._built[j]


@dataclass(eq=False)
class SpectralData:
    """Eigenvalues (descending), multiplicities, and primitive idempotents.

    coefficients[j][i] = m_j u_i(theta_j) / n is the coefficient of A_i in
    E_j; idempotents[j] is the same E_j as a dense n x n RationalMatrix,
    expanded only for norton_oracle, project and the tests (the Norton
    build works from integer_coefficients).
    """

    graph: GraphInstance
    intersection: IntersectionArray
    eigenvalues: tuple
    multiplicities: tuple
    coefficients: tuple
    idempotents: Sequence = field(init=False, repr=False)

    def __post_init__(self):
        self.idempotents = _DenseIdempotents(self.graph, self.coefficients)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def integer_coefficients(self, j: int):
        """(num, den): E_j = sum_i num[i] A_i / den in lowest terms."""
        return _integer_row(self.coefficients[j])

    def validate(self):
        """Full invariant battery in the basis A_0..A_D; returns True.

        Proves E_j E_l = delta_jl E_j, A_1 E_j = theta_j E_j, sum_j E_j = A_0
        and trace E_j = n e[j][0] = m_j through A_a A_b = sum_k p^k_ab A_k,
        plus the count, order and sum of the spectrum.  Every failure raises
        ConstructionError, so python -O does not disable the battery.
        """
        g = self.graph
        n = g.vertex_count
        thetas, mults, e = self.eigenvalues, self.multiplicities, self.coefficients
        p = self.intersection.p.tolist()
        size = g.diameter + 1

        def require(ok, what):
            if not ok:
                raise ConstructionError(f"{g.label()}: spectral check failed: {what}")

        counts = (self.count, len(mults), len(e), len(p))
        require(counts == (size,) * 4, f"{counts} entries for diameter {g.diameter}")
        require(list(thetas) == sorted(set(thetas), reverse=True), f"order of {thetas}")
        require(sum(mults) == n, f"multiplicities {mults} do not sum to {n}")
        require(mults[0] == 1 and min(mults) > 0, f"multiplicities {mults}")
        require([sum(c) for c in zip(*e)] == [1] + [0] * (size - 1), "sum_j E_j != I")
        # f_j = den_j e_j is an integer vector, so the products stay in ints:
        # E_j E_l = delta_jl E_j becomes f_j f_l = delta_jl den_l f_j
        f, dens = zip(*map(_integer_row, e))
        for j in range(size):
            require(n * e[j][0] == mults[j], f"trace E_{j} != m_{j} = {mults[j]}")
            m = _times_matrix(p, f[j])
            require(m[1] == [thetas[j] * c for c in f[j]], f"A E_{j} != theta E_{j}")
            for l in range(j, size):
                want = [dens[l] * c for c in f[j]] if l == j else [0] * size
                got = [sum(y * row[k] for y, row in zip(f[l], m)) for k in range(size)]
                require(got == want, f"E_{j} E_{l}")
        return True


def spectral_data(g: GraphInstance, intersection: IntersectionArray = None):
    """Spectrum and idempotents of g from its intersection array.

    Pass the array check_distance_regular returned for g; without one it is
    derived here, and a graph that is not distance regular raises
    SpectralIntegralityError chained from the NotDistanceRegularError.
    """
    if intersection is None:
        try:
            intersection = check_distance_regular(g)
        except NotDistanceRegularError as exc:
            raise SpectralIntegralityError(
                f"{g.label()} is not distance regular: no intersection array"
            ) from exc
    p = intersection.p.tolist()
    n = g.vertex_count
    k = intersection.degree
    if not all(p[i + 1][1][i] for i in range(g.diameter)):
        raise SpectralIntegralityError(f"{g.label()}: some b_i = 0, not a path metric")
    thetas, mults, coefficients = [], [], []
    for theta in range(k, -k - 1, -1):
        u = _cosine_sequence(p, theta)
        if u is None:
            continue
        m = n / sum(p[i][i][0] * x * x for i, x in enumerate(u))
        if m.denominator != 1:
            raise SpectralIntegralityError(
                f"{g.label()}: eigenvalue {theta} has multiplicity {m}"
            )
        thetas.append(theta)
        mults.append(int(m))
        coefficients.append(tuple(m * x / n for x in u))
    if len(thetas) != g.diameter + 1:
        raise SpectralIntegralityError(
            f"{g.label()}: {len(thetas)} integer eigenvalues for diameter {g.diameter}"
        )
    return SpectralData(
        g, intersection, tuple(thetas), tuple(mults), tuple(coefficients)
    )


def project(spectral: SpectralData, i: int, vec):
    """Orthogonal projection of a coordinate vector onto eigenspace i."""
    return spectral.idempotents[i].apply(vec)


# ---------------------------------------------------------------------------
# closed forms


def closed_form_eigenvalue(family, i: int) -> int:
    if isinstance(family, JohnsonFamily):
        n, k = family.n, family.k
        return (k - i) * (n - k - i) - i
    if isinstance(family, GrassmannFamily):
        q, n, k = family.q, family.n, family.k
        return q ** (i + 1) * q_int(k - i, q) * q_int(n - k - i, q) - q_int(i, q)
    if isinstance(family, HammingFamily):
        return (family.d - i) * family.e - family.d
    if isinstance(family, DualPolarFamily):
        q, d, e = family.q, family.d, family.e
        return q ** e * q_int(d - i, q) - q_int(i, q)
    raise ValueError(f"no closed form for {family!r}")


def closed_form_multiplicity(family, i: int) -> int:
    if isinstance(family, JohnsonFamily):
        n = family.n
        return comb(n, i) - (comb(n, i - 1) if i >= 1 else 0)
    if isinstance(family, GrassmannFamily):
        q, n = family.q, family.n
        return q_binomial(n, i, q) - (q_binomial(n, i - 1, q) if i >= 1 else 0)
    if isinstance(family, HammingFamily):
        return comb(family.d, i) * (family.e - 1) ** i
    if isinstance(family, DualPolarFamily):
        q, d, e = family.q, family.d, family.e
        qf = Fraction(q)
        out = qf ** i * q_binomial(d, i, q)
        out *= (1 + qf ** (d + e - 2 * i)) / (1 + qf ** (d + e - i))
        for j in range(1, i + 1):
            out *= (1 + qf ** (d + e - j)) / (1 + qf ** (j - e))
        if out.denominator != 1:
            raise ConstructionError(f"{family.label()}: multiplicity {out} at {i}")
        return int(out)
    raise ValueError(f"no closed form for {family!r}")
