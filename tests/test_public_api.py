"""Every name a clab module lists in ``__all__`` exists, and the CLI imports no more than it needs."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import clab

MODULES = ["clab", *(f"clab.{info.name}" for info in pkgutil.iter_modules(clab.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_cli_import_leaves_out_scipy_special():
    """scipy.special adds tens of ms to every CLI start; qcore computes its Bessel coefficients itself."""
    code = "import sys, clab.cli; sys.exit('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(clab.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_out_scipy_linalg_and_network_modules():
    """scipy.linalg's package init takes about 0.3 s and xml.sax.saxutils pulls in urllib.request and email.

    reduction takes LAPACK from the OpenBLAS numpy links, so resolving it
    loads no scipy module either: not scipy.linalg, not ``_flapack``.
    """
    code = (
        "import sys, clab.cli, clab.reduction\n"
        "loaded = [m for m in ('scipy.linalg', 'urllib.request', 'xml.sax') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "clab.reduction._lapack()\n"
        "assert not [m for m in sys.modules if m.startswith('scipy') or m.endswith('_flapack')]\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(clab.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_reduction_loads_sparsetools_on_first_use_and_lapack_through_numpy():
    """reduction loads scipy's sparse kernels from their file on first use, and finds LAPACK in numpy's OpenBLAS.

    After ``import clab.cli`` neither is resolved. The LAPACK lookup leaves
    ``_load_scipy``'s cache empty and returns the two symbols of one naming
    scheme. None of scipy's or scipy.sparse's package inits runs, which
    keeps the CLI's start-up cost down; a later ``import scipy.sparse``
    loads its own copy of the kernels.
    """
    code = (
        "import sys, clab.cli\n"
        "from clab import reduction\n"
        "assert reduction._load_scipy.cache_info().currsize == reduction._lapack.cache_info().currsize == 0\n"
        "stebz, pttrf = reduction._lapack()\n"
        "assert (stebz.__name__, pttrf.__name__) in reduction._LAPACK_SYMBOLS, (stebz.__name__, pttrf.__name__)\n"
        "assert reduction._lapack()[0] is stebz and reduction._load_scipy.cache_info().currsize == 0\n"
        "assert reduction._load_scipy() is reduction._load_scipy() and callable(reduction._load_scipy().csr_matvec)\n"
        "assert reduction._load_scipy.cache_info().currsize == 1\n"
        "loaded = [m for m in ('scipy', 'scipy.linalg', 'scipy.sparse') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert not [m for m in sys.modules if m.endswith(('_sparsetools', '_flapack'))]\n"
        "import scipy.sparse\n"
        "assert scipy.sparse._sparsetools is not reduction._load_scipy()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(clab.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


LAZY_LOAD_SCRIPT = """
import importlib.util, json, os, sys
import clab.cli
from clab import reduction

loaded = reduction._load_scipy.cache_info
assert loaded().currsize == 0, "import clab.cli loaded a scipy module"
scipy_root = os.path.dirname(importlib.util.find_spec("scipy").origin)

def mappings():
    if not sys.platform.startswith("linux"):
        return set()
    with open("/proc/self/maps") as fh:
        return {line.split()[-1] for line in fh if "/" in line}

def scipy_mappings():
    # scipy's own OpenBLAS sits in scipy.libs (wheels) or inside scipy; numpy's lives in numpy.libs.
    return sorted(p for p in mappings() if p.startswith((scipy_root + os.sep, scipy_root + ".libs" + os.sep)))

def run(experiment, params):
    path = os.path.join(sys.argv[1], experiment + ".json")
    with open(path, "w") as fh:
        json.dump({"params": params}, fh)
    assert clab.cli.main([experiment, "--config", path, "--out", sys.argv[1]]) == 0

run("decohere", {"K": 4, "energy_scale": 1.0, "tau": 1.0, "trials": 2})
assert loaded().currsize == 0, "a decohere run loaded a scipy module"
run("adiabatic", {"instance_path": sys.argv[2], "schedule": {"T_min": 1.0, "doublings": 7, "target": 0.9}})
assert loaded().currsize == 1
reduction._load_scipy()
assert loaded().currsize == 1, "the adiabatic run did not load _sparsetools"
assert reduction._lapack.cache_info().currsize == 0, "an adiabatic run resolved LAPACK"
before, modules = mappings(), set(sys.modules)
run("spectral", {"grid": {"grid_points": 64, "box_length": 1.0, "mass": 1.0,
                          "potential": {"kind": "harmonic", "omega": 1.0}}, "E_B": 10.0})
assert reduction._lapack.cache_info().currsize == 1, "the spectral run did not resolve LAPACK"
assert loaded().currsize == 1, "the spectral run loaded a scipy module"
mapped = scipy_mappings()
assert not [p for p in mapped if "openblas" in os.path.basename(p) or "_flapack" in p], mapped
assert mappings() == before, sorted(mappings() ^ before)
assert set(sys.modules) == modules, sorted(set(sys.modules) ^ modules)
assert "scipy" not in sys.modules
"""


def test_only_adiabatic_runs_load_scipy_and_spectral_runs_map_nothing_new(tmp_path):
    """An adiabatic run loads ``_sparsetools``; a spectral run maps no new file (read on Linux), so no ``_flapack``."""
    instance = Path(__file__).resolve().parents[1] / "instances" / "ec_n3_single.json"
    env = {**os.environ, "PYTHONPATH": str(Path(clab.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", LAZY_LOAD_SCRIPT, str(tmp_path), str(instance)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
