"""Shared fixtures: lazily built graph instances with spectra and algebras.

Building J_2(4,2) or the dual polar graphs takes a noticeable fraction of a
second, so instances are cached per test session and handed out by short
name.  The acceptance tests deliberately avoid these fixtures and rebuild
everything inside their own timed blocks.
"""

import os
from pathlib import Path

import pytest

import nortonalg
from nortonalg.graphs import (
    build_dual_polar,
    build_grassmann,
    build_hamming,
    build_johnson,
)
from nortonalg.norton import structure_constants
from nortonalg.spectral import spectral_data

BUILDERS = {
    "j31": lambda: build_johnson(3, 1),
    "j41": lambda: build_johnson(4, 1),
    "j42": lambda: build_johnson(4, 2),
    "j52": lambda: build_johnson(5, 2),
    "g242": lambda: build_grassmann(2, 4, 2),
    "h22": lambda: build_hamming(2, 2),
    "h13": lambda: build_hamming(1, 3),
    "h23": lambda: build_hamming(2, 3),
    "h14": lambda: build_hamming(1, 4),
    "d22": lambda: build_dual_polar("D", 2, 2),
    "c22": lambda: build_dual_polar("C", 2, 2),
    "d32": lambda: build_dual_polar("D", 3, 2),
}


@pytest.fixture(scope="session", autouse=True)
def package_on_child_path():
    """Let child processes (python -m nortonalg) import this session's package.

    pytest's pythonpath setting reaches only this process's sys.path.
    """
    src = str(Path(nortonalg.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def bundle():
    """bundle(name) -> (GraphInstance, SpectralData), cached per session."""
    cache = {}

    def get(name):
        if name not in cache:
            g = BUILDERS[name]()
            cache[name] = (g, spectral_data(g))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def algebra(bundle):
    """algebra(name) -> NortonAlgebra, cached per session."""
    cache = {}

    def get(name):
        if name not in cache:
            g, sd = bundle(name)
            cache[name] = structure_constants(g, sd)
        return cache[name]

    return get
