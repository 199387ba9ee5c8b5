from __future__ import annotations

import dataclasses
import math

import pytest

from gravidec import SOLAR_MASS, PhysicalConstants, default_constants
from gravidec.errors import DomainError


def test_default_values_are_codata():
    c = default_constants()
    assert c.hbar == 1.054571817e-34
    assert c.c == 2.99792458e8
    assert c.k_B == 1.380649e-23
    assert c.G == 6.67430e-11
    assert c.g_earth == 9.81


def test_solar_mass_frozen():
    # fixed, not CODATA: reproducibility of the black-hole example depends on it
    assert SOLAR_MASS == 1.989e30


def test_constants_are_immutable():
    c = default_constants()
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.hbar = 1.0


@pytest.mark.parametrize("field", ["hbar", "c", "k_B", "G"])
def test_nonpositive_constants_rejected(field):
    base = dataclasses.asdict(default_constants())
    for bad in (0.0, -1.0, math.inf, math.nan):
        base[field] = bad
        with pytest.raises(DomainError, match=field):
            PhysicalConstants(**base)


def test_custom_override():
    c = PhysicalConstants(hbar=1.0, c=2.0, k_B=3.0, G=4.0, g_earth=5.0)
    assert (c.hbar, c.c, c.k_B, c.G, c.g_earth) == (1.0, 2.0, 3.0, 4.0, 5.0)
