"""Nine-value logic system modelled on IEEE Std 1164 ``std_logic``.

The paper's digital flow operates on VHDL models; this module provides
the value system those models compute over, so that bit-flips, SET
pulses and bus contention behave like they would in a VHDL simulator:

==========  =================================
``Logic.U``  uninitialised
``Logic.X``  forcing unknown
``Logic.L0`` forcing 0
``Logic.L1`` forcing 1
``Logic.Z``  high impedance
``Logic.W``  weak unknown
``Logic.WL`` weak 0
``Logic.WH`` weak 1
``Logic.DC`` don't care
==========  =================================

The module provides the *resolution* function used when several drivers
contend for one signal, the usual boolean operators extended to nine
values, and conversions to and from characters, bools and integers.
"""

from __future__ import annotations

import enum

from .errors import LogicValueError


class Logic(enum.IntEnum):
    """One IEEE-1164-style logic level."""

    U = 0   # uninitialised
    X = 1   # forcing unknown
    L0 = 2  # forcing 0
    L1 = 3  # forcing 1
    Z = 4   # high impedance
    W = 5   # weak unknown
    WL = 6  # weak 0
    WH = 7  # weak 1
    DC = 8  # don't care '-'

    def __str__(self):
        return _TO_CHAR[self]

    @property
    def char(self):
        """The single-character IEEE-1164 representation."""
        return _TO_CHAR[self]

    def is_high(self):
        """True when this level reads as logic 1 (``1`` or ``H``)."""
        return _IS_HIGH[self]

    def is_low(self):
        """True when this level reads as logic 0 (``0`` or ``L``)."""
        return _IS_LOW[self]

    def is_defined(self):
        """True when the value reads as a definite 0 or 1."""
        return self.is_high() or self.is_low()

    def to_bool(self):
        """Convert to bool; raises for undefined levels.

        :raises LogicValueError: for U/X/Z/W/``-``.
        """
        if self.is_high():
            return True
        if self.is_low():
            return False
        raise LogicValueError(f"logic value {self.char!r} has no boolean meaning")

    def to_x01(self):
        """Strength-strip to the three-value subset {0, 1, X}."""
        return _X01[self]

    def invert(self):
        """Nine-value logical NOT."""
        return logic_not(self)


_TO_CHAR = {
    Logic.U: "U",
    Logic.X: "X",
    Logic.L0: "0",
    Logic.L1: "1",
    Logic.Z: "Z",
    Logic.W: "W",
    Logic.WL: "L",
    Logic.WH: "H",
    Logic.DC: "-",
}

_FROM_CHAR = {char: level for level, char in _TO_CHAR.items()}
_FROM_CHAR.update({char.lower(): level for level, char in _TO_CHAR.items()})

#: Per-level predicate and strength-strip tables, indexed by level, so
#: the hot predicates are one tuple lookup each.
_IS_HIGH = tuple(level in (Logic.L1, Logic.WH) for level in Logic)
_IS_LOW = tuple(level in (Logic.L0, Logic.WL) for level in Logic)
_X01 = tuple(
    Logic.L1 if high else Logic.L0 if low else Logic.X
    for high, low in zip(_IS_HIGH, _IS_LOW)
)


#: Convenient aliases used throughout the digital library.
L0 = Logic.L0
L1 = Logic.L1
X = Logic.X
U = Logic.U
Z = Logic.Z


def logic(value):
    """Coerce a value into a :class:`Logic` level.

    Accepts :class:`Logic`, bools, the ints 0/1, and the nine IEEE-1164
    characters in either case.

    :raises LogicValueError: for anything else.
    """
    if isinstance(value, Logic):
        return value
    if isinstance(value, bool):
        return Logic.L1 if value else Logic.L0
    if isinstance(value, int):
        if value == 0:
            return Logic.L0
        if value == 1:
            return Logic.L1
        raise LogicValueError(f"integer {value} is not a logic level (use 0 or 1)")
    if isinstance(value, str) and value in _FROM_CHAR:
        return _FROM_CHAR[value]
    raise LogicValueError(f"cannot interpret {value!r} as a logic level")


# ---------------------------------------------------------------------------
# Resolution (IEEE 1164 resolution table).
# ---------------------------------------------------------------------------

# Indexed [a][b] in the U,X,0,1,Z,W,L,H,- order used by the standard.
_RESOLUTION_CHARS = [
    # U    X    0    1    Z    W    L    H    -
    ["U", "U", "U", "U", "U", "U", "U", "U", "U"],  # U
    ["U", "X", "X", "X", "X", "X", "X", "X", "X"],  # X
    ["U", "X", "0", "X", "0", "0", "0", "0", "X"],  # 0
    ["U", "X", "X", "1", "1", "1", "1", "1", "X"],  # 1
    ["U", "X", "0", "1", "Z", "W", "L", "H", "X"],  # Z
    ["U", "X", "0", "1", "W", "W", "W", "W", "X"],  # W
    ["U", "X", "0", "1", "L", "W", "L", "W", "X"],  # L
    ["U", "X", "0", "1", "H", "W", "W", "H", "X"],  # H
    ["U", "X", "X", "X", "X", "X", "X", "X", "X"],  # -
]

_ORDER = [Logic.U, Logic.X, Logic.L0, Logic.L1, Logic.Z,
          Logic.W, Logic.WL, Logic.WH, Logic.DC]
_INDEX = {level: i for i, level in enumerate(_ORDER)}

_RESOLUTION = {
    (a, b): _FROM_CHAR[_RESOLUTION_CHARS[_INDEX[a]][_INDEX[b]]]
    for a in _ORDER
    for b in _ORDER
}


def resolve(a, b):
    """Resolve two driver contributions per the IEEE 1164 table."""
    return _RESOLUTION[(logic(a), logic(b))]


def resolve_many(values):
    """Resolve an iterable of driver contributions.

    An empty iterable resolves to ``Z`` (nobody driving).
    """
    result = Logic.Z
    for value in values:
        result = _RESOLUTION[(result, logic(value))]
    return result


# ---------------------------------------------------------------------------
# Boolean operators extended to nine values.
#
# The operators follow IEEE 1164: strengths are stripped first (to_x01)
# and unknowns dominate unless the other operand forces the result
# (0 AND anything = 0, 1 OR anything = 1).
# ---------------------------------------------------------------------------


def logic_not(a):
    """Nine-value NOT."""
    a = logic(a).to_x01()
    if a is Logic.L0:
        return Logic.L1
    if a is Logic.L1:
        return Logic.L0
    return Logic.X


def logic_and(a, b):
    """Nine-value AND."""
    a = logic(a).to_x01()
    b = logic(b).to_x01()
    if a is Logic.L0 or b is Logic.L0:
        return Logic.L0
    if a is Logic.L1 and b is Logic.L1:
        return Logic.L1
    return Logic.X


def logic_or(a, b):
    """Nine-value OR."""
    a = logic(a).to_x01()
    b = logic(b).to_x01()
    if a is Logic.L1 or b is Logic.L1:
        return Logic.L1
    if a is Logic.L0 and b is Logic.L0:
        return Logic.L0
    return Logic.X


def logic_xor(a, b):
    """Nine-value XOR."""
    a = logic(a).to_x01()
    b = logic(b).to_x01()
    if a is Logic.X or b is Logic.X:
        return Logic.X
    return Logic.L1 if a is not b else Logic.L0


def logic_nand(a, b):
    """Nine-value NAND."""
    return logic_not(logic_and(a, b))


def logic_nor(a, b):
    """Nine-value NOR."""
    return logic_not(logic_or(a, b))


def logic_xnor(a, b):
    """Nine-value XNOR."""
    return logic_not(logic_xor(a, b))


def logic_buf(a):
    """Nine-value buffer (strength strip)."""
    return _X01[logic(a)]


def flip(a):
    """Bit-flip used by the SEU fault model.

    A defined level inverts; everything else (already corrupted or
    undriven) becomes ``X``, mirroring how an upset leaves the element
    in an unknown-but-changed state.
    """
    a = logic(a)
    if a.is_defined():
        return Logic.L0 if a.is_high() else Logic.L1
    return Logic.X


# ---------------------------------------------------------------------------
# Vector helpers.
# ---------------------------------------------------------------------------


def bits_from_int(value, width):
    """LSB-first list of logic levels encoding ``value`` on ``width`` bits.

    :raises LogicValueError: if the value does not fit.
    """
    if width <= 0:
        raise LogicValueError(f"vector width must be positive, got {width}")
    if value < 0 or value >= (1 << width):
        raise LogicValueError(f"value {value} does not fit in {width} bits")
    return [Logic.L1 if (value >> i) & 1 else Logic.L0 for i in range(width)]


def int_from_bits(bits):
    """Integer from an LSB-first iterable of logic levels.

    :raises LogicValueError: if any bit is undefined.
    """
    result = 0
    for i, bit in enumerate(bits):
        bit = logic(bit)
        if not bit.is_defined():
            raise LogicValueError(
                f"bit {i} is {bit.char!r}; vector has no integer value"
            )
        if bit.is_high():
            result |= 1 << i
    return result


def vector_string(bits):
    """MSB-first character string for an LSB-first logic vector."""
    return "".join(logic(bit).char for bit in reversed(list(bits)))
