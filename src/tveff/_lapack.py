"""The three LAPACK routines the package calls, without importing ``scipy.linalg``.

``dpbtrf`` and ``dtbtrs`` factor and solve the TV-VAR's banded normal
equations (:mod:`tveff.tvvar`); ``dgtsv`` solves the spline's
tridiagonal slope system (:mod:`tveff.series`).  All three live in
scipy's compiled ``scipy/linalg/_flapack`` extension, which this module
loads from its file, because running ``scipy/linalg/__init__.py``
(which imports the whole subpackage and its array-API layer) was most
of every ``tveff`` command's start-up.  The module is registered
under its own name, ``scipy.linalg._flapack``, so a later
``import scipy.linalg`` reuses it, and these functions are the objects
``scipy.linalg.lapack`` exports, whichever is imported first.  (The
package ``scipy.linalg`` then lacks the attribute ``_flapack``; import
statements, scipy's own included, still find the module.)  The file's
place is private to scipy; if it cannot be loaded, the routines come
from ``scipy.linalg`` itself.

Beside them, :func:`scipy_version` reads scipy's version string from
``scipy/version.py`` the same way, since ``import scipy`` alone costs
several milliseconds of start-up.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

__all__ = ["dgtsv", "dpbtrf", "dtbtrs"]  # scipy's objects, as scipy.linalg.lapack exports them


def _load_scipy_file(name: str, *candidates: str):
    """Execute the first existing file of ``candidates`` under scipy's directory as ``name``.

    Raises ImportError, OSError or StopIteration when none can be loaded.
    """
    root = Path(importlib.util.find_spec("scipy").origin).parent
    path = next(p for c in candidates if (p := root / c).is_file())
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flapack():
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        module = _load_scipy_file(name, *(f"linalg/_flapack{s}" for s in EXTENSION_SUFFIXES))
    except (ImportError, OSError, StopIteration):  # not found or not loadable: ask scipy.linalg
        from scipy.linalg import _flapack
        return _flapack
    sys.modules[name] = module
    return module


def scipy_version() -> str:
    """``scipy.__version__``, read from ``scipy/version.py`` without importing scipy."""
    try:
        return _load_scipy_file("scipy.version", "version.py").version
    except (ImportError, OSError, StopIteration, AttributeError):
        import scipy
        return scipy.__version__


_module = _flapack()
dgtsv, dpbtrf, dtbtrs = _module.dgtsv, _module.dpbtrf, _module.dtbtrs
