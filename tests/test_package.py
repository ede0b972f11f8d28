"""The package namespace: the public names, each from its defining module."""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import newtoncert

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = {
    "gaussian": ("GaussianRational",),
    "kouchnirenko": ("INFINITE", "UnboundedRegionError", "UnderDiagramRegion", "VolumeVector",
                     "face_restriction", "milnor_number", "under_diagram_region", "volumes"),
    "morse": ("GENERICALLY_MORSE", "NEVER_MORSE", "MorseVerdict", "classify_support",
              "genericity_gap_demo", "quadratic_restriction"),
    "poly": ("ParseError", "QuadraticForm", "SparsePolynomial", "determinant",
             "hessian_at_zero", "is_morse", "monomial", "parse_polynomial", "quadratic_part"),
    "polytope": ("ConvexCombination", "LatticePolytope", "Separation", "barycenter",
                 "contains_point", "is_minimal", "lattice_points", "minimal_subpolytope",
                 "newton_polyhedron", "newton_polytope", "pair_point", "two_delta_points"),
    "stencil": ("Certificate", "CoverCertificate", "HalfSpace", "MatchingCertificate", "Stencil",
                "certify", "find_matching", "min_vertex_cover",
                "sample_generic_form", "separating_halfspace", "sign_consistency", "stencil_of"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_public_names_pinned():
    assert sorted(newtoncert.__all__) == NAMES
    assert set(NAMES) <= set(dir(newtoncert))


def test_public_names_are_their_defining_modules_objects():
    star = {}
    exec("from newtoncert import *", star)
    assert sorted(k for k in star if k != "__builtins__") == NAMES
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"newtoncert.{module}")
        for name in names:
            assert getattr(newtoncert, name) is getattr(home, name), name
            assert star[name] is getattr(home, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        newtoncert.no_such_name  # noqa: B018
    from newtoncert import lp  # a submodule still imports by name

    assert lp is sys.modules["newtoncert.lp"]


def test_package_import_loads_no_submodule():
    code = "import newtoncert, sys; print(sorted(m for m in sys.modules if 'newtoncert' in m))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "['newtoncert']"


def test_trace_layers_name_live_functions():
    """Every function that bench/spans.py wraps for --trace still exists in
    its home module (runpy compiles the file in memory; bench/ is only read)."""
    layers = runpy.run_path(str(ROOT / "bench" / "spans.py"))["LAYERS"]
    for home, names in layers.items():
        module = importlib.import_module(f"newtoncert.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"
