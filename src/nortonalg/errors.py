"""Shared exception types: budget refusals and construction failures."""


class NortonError(Exception):
    """Base class for all package-specific errors."""


class EnumerationLimitError(NortonError):
    """Tree enumeration refused because n exceeds the configured limit."""

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
    """Intersection numbers are not independent of the base pair; carries a witness."""

    def __init__(self, i, j, k, pair_a, pair_b, count_a, count_b):
        super().__init__(
            f"p[{i}][{j}] not constant on distance-{k} pairs: "
            f"{pair_a} gives {count_a}, {pair_b} gives {count_b}"
        )
        self.witness = (i, j, k, pair_a, pair_b, count_a, count_b)


class SpectralIntegralityError(NortonError):
    """No integral spectrum from an intersection array (not a valid family graph).

    Raised when the graph is not distance regular (chained from the
    NotDistanceRegularError witness), when fewer than D+1 integers are
    eigenvalues of the intersection array, or when a multiplicity is not an
    integer.
    """


class FormulaMismatchError(NortonError):
    """A closed-form product disagrees with the projection oracle."""


class ConstructionError(NortonError):
    """An internal invariant failed while building an instance."""
