"""Shared exception types: budget refusals and construction failures."""


class NortonError(Exception):
    """Base class for all package-specific errors."""


class EnumerationLimitError(NortonError):
    """Tree enumeration refused because n exceeds DEFAULT_ENUMERATION_LIMIT."""

    def __init__(self, n, limit):
        super().__init__(f"refusing to enumerate {n} internal nodes (limit {limit})")
        self.n = n
        self.limit = limit


class BudgetExceededError(NortonError):
    """A size budget (vertex count, fingerprint probes, ...) would be exceeded."""

    def __init__(self, kind, needed, budget):
        super().__init__(f"{kind} budget exceeded: need {needed}, budget {budget}")
        self.kind = kind
        self.needed = needed
        self.budget = budget


class NotDistanceRegularError(NortonError):
    """Intersection numbers are not independent of the base pair; carries a witness.

    witness = (i, j, k, pair_a, pair_b, count_a, count_b): both pairs lie at
    distance k, and count_a, count_b are their numbers of z with d(x,z) = i
    and d(z,y) = j.
    """

    def __init__(self, i, j, k, pair_a, pair_b, count_a, count_b):
        super().__init__(
            f"p[{i}][{j}] not constant on distance-{k} pairs: "
            f"{pair_a} gives {count_a}, {pair_b} gives {count_b}"
        )
        self.witness = (i, j, k, pair_a, pair_b, count_a, count_b)


class NotPathMetricError(NortonError):
    """A distance matrix that is not the path metric of its distance-1 graph.

    vertices names the witness: (x, y) for a diagonal entry other than 0,
    an off-diagonal entry below 1, or a pair at distance k >= 1 with no
    neighbour of y at distance k-1 from x; (x, y, z) for a neighbour z of y
    with |d(x,z) - d(x,y)| > 1.
    """

    def __init__(self, message, vertices):
        super().__init__(message)
        self.vertices = tuple(vertices)


class SpectralIntegralityError(NortonError):
    """No integral spectrum from an intersection array (not a valid family graph).

    Raised when the graph is not distance regular (chained from the
    NotDistanceRegularError or NotPathMetricError witness), when fewer than
    D+1 integers are eigenvalues of the intersection array, or when a
    multiplicity is not an integer.
    """


class FormulaMismatchError(NortonError):
    """A closed-form product disagrees with the projection oracle."""


class ConstructionError(NortonError):
    """An internal invariant failed while building an instance."""
