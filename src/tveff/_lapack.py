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
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

__all__ = ["dgtsv", "dpbtrf", "dtbtrs"]


def _flapack():
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        linalg = Path(importlib.util.find_spec("scipy").origin).parent / "linalg"
        path = next(p for suffix in EXTENSION_SUFFIXES
                    if (p := linalg / f"_flapack{suffix}").is_file())
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError, StopIteration):  # not found or not loadable: ask scipy.linalg
        from scipy.linalg import _flapack
        return _flapack
    sys.modules[name] = module
    return module


_module = _flapack()
dgtsv, dpbtrf, dtbtrs = _module.dgtsv, _module.dpbtrf, _module.dtbtrs
