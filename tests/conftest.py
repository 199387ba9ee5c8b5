from __future__ import annotations

import tracemalloc

import pytest

#: Solar mass in kg, fixed so that the frozen Schwarzschild and Hawking values
#: keep their bits (5 * SOLAR_MASS == 9.945e30 exactly, the README's mass).
SOLAR_MASS = 1.989e30


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` runs fn() under tracemalloc and returns
    (result, peak bytes traced during the call), counted from the call's start."""

    def run(fn):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
