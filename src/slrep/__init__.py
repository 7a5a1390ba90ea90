"""Exact counting, sampling, and limit-law analysis of random
finite-dimensional representations of the special linear Lie algebras.

A random n-dimensional representation is a uniformly chosen multiset of
irreducibles whose dimensions sum to n.  The package counts these objects
exactly, samples them (directly and through the grand-canonical Boltzmann
model), and compares exact finite-n distributions of their observables
against the limit laws, with certified truncation errors throughout.

The package root exports only `__version__` and loads no layer: import
the module you need (`slrep.exact_count`, `slrep.boltzmann`, ...), so that
each command pays only for the layers it runs.
"""

from time import monotonic as _monotonic

_IMPORT_STARTED = _monotonic()  # the manifest's import_s counts from here

__version__ = "0.1.0"
