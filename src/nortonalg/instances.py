"""Build a graph family instance end to end and keep the pieces together.

An InstanceBundle holds the graph, its spectral decomposition, and the
Norton algebra on the second eigenspace.  build_instance runs the whole
validation battery; the cache layer reconstructs bundles without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConstructionError
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    DualPolarFamily,
    GrassmannFamily,
    GraphInstance,
    HammingFamily,
    JohnsonFamily,
    build_dual_polar,
    build_grassmann,
    build_hamming,
    build_johnson,
    check_distance_regular,
)
from .norton import (
    FormulaOracleReport,
    NortonAlgebra,
    oracle_products,
    structure_constants,
    verify_formula_vs_oracle,
)
from .spectral import (
    SpectralData,
    closed_form_eigenvalue,
    closed_form_multiplicity,
    spectral_data,
)

FAMILY_NAMES = ("johnson", "hamming", "grassmann", "dualpolar")


@dataclass(eq=False)
class InstanceBundle:
    graph: GraphInstance
    spectral: SpectralData
    algebra: NortonAlgebra
    formula_report: Optional[FormulaOracleReport] = None

    def label(self) -> str:
        return self.graph.label()


def family_key(family) -> tuple:
    """(name, params) pair identifying a buildable family instance."""
    if isinstance(family, JohnsonFamily):
        return "johnson", (family.n, family.k)
    if isinstance(family, HammingFamily):
        return "hamming", (family.d, family.e)
    if isinstance(family, GrassmannFamily):
        return "grassmann", (family.q, family.n, family.k)
    if isinstance(family, DualPolarFamily):
        return "dualpolar", (family.kind, family.d, family.q)
    raise ValueError(f"{family.label()} is not a buildable family")


def parse_instance_spec(text: str):
    """Parse "family:param:param" into a (name, params) pair.

    Examples: "johnson:4:2", "hamming:2:3", "grassmann:2:4:2",
    "dualpolar:D:2:2".  Numeric parameters must be integers; the dual polar
    kind stays a string.
    """
    parts = text.split(":")
    name = parts[0].strip().lower()
    raw = [p.strip() for p in parts[1:]]
    return name, normalize_params(name, raw)


def normalize_params(name: str, raw) -> tuple:
    """Validate a parameter list for a family name, converting to ints."""
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
    arity = {"johnson": 2, "hamming": 2, "grassmann": 3, "dualpolar": 3}[name]
    if len(raw) != arity:
        raise ValueError(f"{name} takes {arity} parameters, got {len(raw)}")
    params = []
    for pos, value in enumerate(raw):
        if name == "dualpolar" and pos == 0:
            params.append(str(value))
            continue
        try:
            params.append(int(value))
        except (TypeError, ValueError):
            raise ValueError(f"{name} parameter {value!r} is not an integer") from None
    return tuple(params)


def build_graph(name: str, params, budget: int = DEFAULT_VERTEX_BUDGET) -> GraphInstance:
    params = normalize_params(name, params)
    if name == "johnson":
        return build_johnson(*params, budget=budget)
    if name == "hamming":
        return build_hamming(*params, budget=budget)
    if name == "grassmann":
        return build_grassmann(*params, budget=budget)
    return build_dual_polar(*params, budget=budget)


def build_instance(
    name: str, params, budget: int = DEFAULT_VERTEX_BUDGET
) -> InstanceBundle:
    """Construct and fully validate one instance.

    Every layer's invariants run here: distance regularity, the spectral
    resolution of identity, agreement with the closed forms, and the
    formula-versus-oracle sweep over all spanning pairs.  Loading from cache
    skips this battery, so a bundle from here is the ground truth.
    """
    g = build_graph(name, params, budget=budget)
    sd = spectral_data(g, check_distance_regular(g))
    sd.validate()
    for i in range(sd.count):
        theta = closed_form_eigenvalue(g.family, i)
        mult = closed_form_multiplicity(g.family, i)
        if theta != sd.eigenvalues[i] or mult != sd.multiplicities[i]:
            raise ConstructionError(
                f"{g.label()}: computed eigenvalue {sd.eigenvalues[i]} "
                f"(multiplicity {sd.multiplicities[i]}) disagrees with the "
                f"closed form {theta} (multiplicity {mult}) at index {i}"
            )
    # one set of spanning vectors and oracle products serves both steps
    products = oracle_products(g, sd)
    report = verify_formula_vs_oracle(g, sd, products=products)
    algebra = structure_constants(g, sd, products=products)
    return InstanceBundle(g, sd, algebra, report)
