"""Exact moments of real Wishart matrices and their inverses.

Closed-form entrywise, trace and invariant-polynomial moments of W and W^-1
with exact rational coefficients built from orthogonal Weingarten functions,
plus Monte Carlo samplers that validate every formula.
"""

import importlib
import sys

__version__ = "0.1.0"


def _numpy():
    """numpy for the numeric modules: the module already in ``sys.modules``, or
    numpy imported now.  In a CLI process that module is the lazy one
    ``wishmom.cli._defer`` puts there, which runs numpy on its first
    attribute read; ``import numpy`` would read its ``__spec__`` and so run
    it at once.  ``_defer`` sets this package's own lazy modules on the
    package for the same reason: ``from . import wishart`` then takes the
    attribute and leaves the module unrun."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    return importlib.import_module("numpy")
