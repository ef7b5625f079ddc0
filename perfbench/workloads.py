"""The benchmark's fixed workloads, as plain data.

Each workload is a list of operations that make up one pass.  A run repeats
the pass for the requested number of seconds; the seed only permutes the
order of the operations inside a pass.  Every pinned value below is an
exact answer of the program, checked after each operation.

Instance sizes are chosen so that one pass takes a few seconds on a 2-core
VM, which lets a 20 s run hold three or more passes and report their median.
Larger instances of the same families (H(5,3), C_2(3), J(4,1) at m=8) do
not fit that budget; see NOTES.md.

This module imports nothing from the program, so run.py can read it
before the program is known to exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

A000975 = "a000975"
TOTALLY = "totally_nonassociative"


@dataclass(frozen=True)
class Build:
    """`nortonalg build FAMILY PARAMS` into the pass's cache directory."""

    family: str
    params: tuple
    label: str
    vertices: int
    diameter: int
    dim: int
    pairs: int
    branch: str


@dataclass(frozen=True)
class Verify:
    """`nortonalg verify FAMILY PARAMS --m-max M [--strategy S]` on a cached instance."""

    family: str
    params: tuple
    label: str
    m_max: int
    strategy: str
    branch: str


@dataclass(frozen=True)
class Spectrum:
    """Exact spectrum through the public API, without building the algebra."""

    family: str
    params: tuple
    label: str
    vertices: int
    diameter: int


@dataclass(frozen=True)
class OverBudget:
    """A graph past the default 10^4-vertex budget: must be refused fast.

    via_cli selects `nortonalg build` (exit code 3) over `build_graph`
    (BudgetExceededError).
    """

    family: str
    params: tuple
    via_cli: bool


@dataclass(frozen=True)
class Workload:
    why: str
    ops: tuple
    setup: tuple = ()
    # Build ops write into a fresh, empty cache directory on every pass.
    fresh_cache_per_pass: bool = False
    # Per-layer time metrics that should carry most of the traced wall time.
    dominant: tuple = ()


# H(9,3) has 19 683 vertices against the default budget of 10^4.
OVER_BUDGET_CLI = OverBudget("hamming", (9, 3), via_cli=True)
OVER_BUDGET_API = OverBudget("hamming", (9, 3), via_cli=False)

C22 = Build("dualpolar", ("C", 2, 2), "C_2(2)", 15, 2, 9, 225, TOTALLY)
J242 = Build("grassmann", (2, 4, 2), "J_2(4,2)", 35, 2, 14, 225, TOTALLY)
J41 = Build("johnson", (4, 1), "J(4,1)", 4, 1, 3, 16, TOTALLY)
H23 = Build("hamming", (2, 3), "H(2,3)", 9, 2, 4, 36, A000975)

WORKLOADS = {
    "build-cold": Workload(
        why=(
            "cold builds into an empty cache: the formula-vs-oracle sweep and "
            "structure constants (norton layer) dominate; cache write side"
        ),
        ops=(
            J242,
            C22,
            Build("hamming", (2, 5), "H(2,5)", 25, 2, 8, 100, TOTALLY),
            Build("johnson", (7, 2), "J(7,2)", 21, 2, 6, 49, TOTALLY),
            OVER_BUDGET_CLI,
        ),
        fresh_cache_per_pass=True,
        dominant=("norton.sweep_s", "norton.structure_s"),
    ),
    "spectra": Workload(
        why=(
            "exact spectra of the largest graphs (n=70..84) via the API: "
            "spectral decomposition and validation dominate; no algebra"
        ),
        ops=(
            Spectrum("hamming", (4, 3), "H(4,3)", 81, 4),
            Spectrum("johnson", (8, 4), "J(8,4)", 70, 4),
            Spectrum("johnson", (9, 3), "J(9,3)", 84, 3),
            OVER_BUDGET_API,
        ),
        dominant=("spectral.decompose_s", "spectral.validate_s", "spectral.closed_form_s"),
    ),
    "count-pattern": Workload(
        why=(
            "class counts by one-off signatures on cached instances: pattern "
            "counting dominates, the cache is read once per verify"
        ),
        setup=(C22, J242),
        ops=(
            Verify("dualpolar", ("C", 2, 2), "C_2(2)", 7, "pattern", TOTALLY),
            Verify("grassmann", (2, 4, 2), "J_2(4,2)", 7, "pattern", TOTALLY),
            OVER_BUDGET_CLI,
        ),
        dominant=("classify.pattern_s",),
    ),
    "count-tensor": Workload(
        why=(
            "class counts where auto picks exact probe tensors at every m: "
            "binop dominates and peak memory; pattern code is bypassed"
        ),
        setup=(J41, H23),
        ops=(
            Verify("johnson", (4, 1), "J(4,1)", 7, "auto", TOTALLY),
            Verify("hamming", (2, 3), "H(2,3)", 6, "auto", A000975),
            OVER_BUDGET_CLI,
        ),
        dominant=("binop.tensor_s",),
    ),
}


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def expected_counts(branch: str, m_max: int) -> list:
    """Class counts m = 0..m_max the branch predicts, computed independently."""
    if branch == A000975:
        return [1] + [2 ** (m + 1) // 3 for m in range(1, m_max + 1)]
    if branch == TOTALLY:
        return [catalan(m) for m in range(m_max + 1)]
    raise ValueError(f"unknown branch {branch!r}")


def cli_args(op) -> list:
    """Family and parameters as CLI words."""
    return [op.family, *(str(p) for p in op.params)]
