from __future__ import annotations

import dataclasses
import math

import pytest

from gravidec import PhysicalConstants, default_constants
from gravidec.constants import power
from gravidec.errors import DomainError


def test_default_values_are_codata():
    c = default_constants()
    assert c.hbar == 1.054571817e-34
    assert c.c == 2.99792458e8
    assert c.k_B == 1.380649e-23
    assert c.G == 6.67430e-11
    assert c.g_earth == 9.81


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


@pytest.mark.parametrize("overrides", [{}, {"hbar": 1e-300}, {"c": 1e200}, {"c": 1e120}])
def test_derived_powers_are_computed_once_and_are_no_fields(overrides):
    c = PhysicalConstants(**overrides)
    assert (c.c2, c.c3, c.hbar_c2) == (power(c.c, 2), power(c.c, 3), c.hbar * power(c.c, 2))
    assert list(dataclasses.asdict(c)) == ["hbar", "c", "k_B", "G", "g_earth"]
    twin = dataclasses.replace(c)
    assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
