"""Build a graph family instance end to end and keep the pieces together.

An InstanceBundle holds the graph, its spectral decomposition, and the
Norton algebra on the second eigenspace.  build_instance runs the whole
validation battery; the cache layer reconstructs bundles without it.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
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

# name -> (family class, builder); a class's fields are its builder's parameters
FAMILIES = {
    "johnson": (JohnsonFamily, build_johnson),
    "hamming": (HammingFamily, build_hamming),
    "grassmann": (GrassmannFamily, build_grassmann),
    "dualpolar": (DualPolarFamily, build_dual_polar),
}


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
    for name, (cls, _) in FAMILIES.items():
        if isinstance(family, cls):
            return name, astuple(family)
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
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")
    params = fields(FAMILIES[name][0])
    if len(raw) != len(params):
        raise ValueError(f"{name} takes {len(params)} parameters, got {len(raw)}")
    out = []
    for param, value in zip(params, raw):
        if param.type in (str, "str"):  # "str" under postponed annotations
            out.append(str(value))
            continue
        try:
            out.append(int(value))
        except (TypeError, ValueError):
            raise ValueError(f"{name} parameter {value!r} is not an integer") from None
    return tuple(out)


def build_graph(name: str, params, budget: int = DEFAULT_VERTEX_BUDGET) -> GraphInstance:
    params = normalize_params(name, params)
    return FAMILIES[name][1](*params, budget=budget)


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
    # one set of spanning vectors serves both steps, and the cube is read
    # off the formulas the sweep proved
    products = oracle_products(g, sd)
    report = verify_formula_vs_oracle(g, sd, products=products)
    algebra = structure_constants(g, sd, products=products, report=report)
    return InstanceBundle(g, sd, algebra, report)
