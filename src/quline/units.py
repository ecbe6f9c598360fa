"""SI <-> natural-unit conversion used only at the CLI boundary.

The core works in natural units c = hbar = 1 with the metre as base length.
Conversions: time -> ct [m], velocity -> v/c, mass -> mc/hbar [1/m],
acceleration -> a/c^2 [1/m], energy -> E/(hbar c) [1/m].
"""

from __future__ import annotations

import re

__all__ = ["C_SI", "parse_quantity", "to_natural", "from_natural"]

C_SI = 299792458.0            # m/s
HBAR_SI = 1.054571817e-34     # J s

# unit -> (dimension, factor to SI base unit)
_UNITS = {
    "m": ("length", 1.0),
    "cm": ("length", 1e-2),
    "mm": ("length", 1e-3),
    "um": ("length", 1e-6),
    "nm": ("length", 1e-9),
    "km": ("length", 1e3),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "m/s": ("velocity", 1.0),
    "km/s": ("velocity", 1e3),
    "m/s^2": ("acceleration", 1.0),
    "m/s2": ("acceleration", 1.0),
    "kg": ("mass", 1.0),
    "eV": ("energy", 1.602176634e-19),
    "keV": ("energy", 1.602176634e-16),
    "MeV": ("energy", 1.602176634e-13),
    "J": ("energy", 1.0),
    "rad": ("angle", 1.0),
    "deg": ("angle", 3.141592653589793 / 180.0),
    "nat": ("natural", 1.0),
    "c": ("velocity", C_SI),
}

_TO_NATURAL = {
    "length": lambda x: x,
    "time": lambda x: x * C_SI,
    "velocity": lambda x: x / C_SI,
    "acceleration": lambda x: x / C_SI**2,
    "mass": lambda x: x * C_SI / HBAR_SI,
    "energy": lambda x: x / (HBAR_SI * C_SI),
    "angle": lambda x: x,
    "natural": lambda x: x,
}

_FROM_NATURAL = {
    "length": lambda x: x,
    "time": lambda x: x / C_SI,
    "velocity": lambda x: x * C_SI,
    "acceleration": lambda x: x * C_SI**2,
    "mass": lambda x: x * HBAR_SI / C_SI,
    "energy": lambda x: x * HBAR_SI * C_SI,
    "angle": lambda x: x,
    "natural": lambda x: x,
}

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([A-Za-z/^0-9]*)\s*$")


def parse_quantity(text):
    """Parse "2 cm" / "2200 m/s" / "0.5 nat" -> (value_natural, dimension).

    Dimensionless bare numbers are returned with dimension "natural".
    """
    if isinstance(text, (int, float)):
        return float(text), "natural"
    m = _QUANTITY_RE.match(str(text))
    if not m:
        raise ValueError(f"cannot parse quantity {text!r}")
    value = float(m.group(1))
    unit = m.group(2)
    if not unit:
        return value, "natural"
    if unit not in _UNITS:
        raise ValueError(f"unknown unit {unit!r} in {text!r}")
    dim, factor = _UNITS[unit]
    return _TO_NATURAL[dim](value * factor), dim


def to_natural(value_si, dimension):
    return _TO_NATURAL[dimension](value_si)


def from_natural(value_nat, dimension):
    return _FROM_NATURAL[dimension](value_nat)
