"""Numeric tables from outside the program: one reader and one interpolant.

Every CSV table the package takes (mode frequencies, arm trajectories, a
tabulated potential, an emission spectrum) is read by :func:`read_table`, and
every tabulated function is evaluated through :func:`linear_interpolant`, so
a malformed table fails the same way whichever flag brought it in: as a
DomainError that names the file or the column. A path that cannot be opened
raises the OSError of the open.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .errors import DomainError

#: How a wrong column count is worded, by the count expected; the names follow.
_EXPECTED = {1: "a single column of", 2: "two columns", 3: "three columns", 5: "five columns"}


def read_table(path, columns: tuple[str, ...]) -> np.ndarray:
    """The (rows, len(columns)) float array of a comma-separated file.

    ``#`` starts a comment and blank lines are skipped. An unparseable cell,
    a ragged row, a file with no rows and a wrong column count are each a
    DomainError that names ``path``. Cells are not checked for finiteness:
    the object built from the columns does that, and names the column.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy only warns on a file with no rows
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except UserWarning:
        raise DomainError(f"{path}: table has no rows") from None
    except ValueError as exc:  # an unparseable cell, a ragged row, or bytes that are not UTF-8
        raise DomainError(f"{path}: {exc}") from None
    if data.shape[1] != len(columns):
        raise DomainError(f"{path}: expected {_EXPECTED[len(columns)]} {','.join(columns)}")
    return data


def linear_interpolant(x, y, names: tuple[str, str]) -> Callable[[np.ndarray], np.ndarray]:
    """Piecewise-linear y(x) through the samples, refusing queries outside [x[0], x[-1]].

    ``x`` and ``y`` must be matching finite 1-D arrays of at least two
    samples, with ``x`` strictly increasing; ``names`` label them in the
    errors. The returned function raises DomainError rather than
    extrapolating silently.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise DomainError("need matching 1-D arrays with at least two samples")
    for name, values in zip(names, (x, y)):
        if not np.all(np.isfinite(values)):
            raise DomainError(f"tabulated {name} has non-finite entries")
    if not np.all(np.diff(x) > 0):
        raise DomainError(f"tabulated {names[0]} must be strictly increasing")

    def interpolate(query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=float)
        if np.any(query < x[0]) or np.any(query > x[-1]):
            raise DomainError(f"query outside tabulated domain [{x[0]}, {x[-1]}]")
        return np.interp(query, x, y)

    return interpolate
