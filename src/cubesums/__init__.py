"""Computational laboratory for local and global statistics of
x^3 + y^3 + z^3 = a: exact complete exponential sums, singular series,
archimedean densities by quadrature, weighted lattice counts, and the
truncated-series variance pipeline."""

__version__ = "0.1.0"


class CheckFailed(Exception):
    """An exact identity or internal invariant did not hold.

    Raised explicitly (never via ``assert``) so the check survives
    ``python -O``; the CLI maps it to exit code 2.
    """
