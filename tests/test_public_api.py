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

    The LAPACK module that reduction loads stays out of sys.modules, so a later
    ``import scipy.linalg`` loads its own copy.
    """
    code = (
        "import sys, clab.cli, clab.reduction\n"
        "loaded = [m for m in ('scipy.linalg', 'urllib.request', 'xml.sax') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert not [m for m in sys.modules if m.endswith('_flapack')]\n"
        "import scipy.linalg\n"
        "assert scipy.linalg._flapack is not clab.reduction._lapack\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(clab.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_scipy_modules_without_their_packages():
    """reduction loads scipy's LAPACK and sparse-kernel modules from their files.

    None of scipy's, scipy.linalg's or scipy.sparse's package inits runs,
    which keeps the CLI's start-up cost down; a later ``import scipy.sparse``
    loads its own copy of the kernels.
    """
    code = (
        "import sys, clab.cli\n"
        "from clab import reduction\n"
        "loaded = [m for m in ('scipy', 'scipy.linalg', 'scipy.sparse') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert callable(reduction._lapack.dstebz) and callable(reduction._sparsetools.csr_matvec)\n"
        "assert not [m for m in sys.modules if m.endswith('_sparsetools')]\n"
        "import scipy.sparse\n"
        "assert scipy.sparse._sparsetools is not reduction._sparsetools\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(clab.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
