from __future__ import annotations

import tracemalloc

import pytest


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
