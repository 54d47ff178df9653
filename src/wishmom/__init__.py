"""Exact moments of real Wishart matrices and their inverses.

Closed-form entrywise, trace and invariant-polynomial moments of W and W^-1
with exact rational coefficients built from orthogonal Weingarten functions,
plus Monte Carlo samplers that validate every formula.
"""

__version__ = "0.1.0"
