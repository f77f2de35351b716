"""Reversible arithmetic networks built from generalized Toffoli gates.

The building blocks, smallest first:

* a controlled one-column adder that ripples a carry while adding a
  classical constant bit,
* a controlled constant adder mapping ``X -> X + Y`` that computes the sum
  into scratch wires, swaps it into the register and then clears the
  leftover copy of ``X`` by un-adding the two's complement of ``Y``,
* a controlled mod-N adder built from five constant adders plus two
  record-erasing NOTs,
* a controlled modular multiplier (repeated mod-N addition, a mirrored
  erasure pass using the inverse factor, and a final controlled swap),
* the modular-exponentiation chain driving one multiplier per exponent bit.

All builders take explicit wire lists of qubit indices so they compose
freely (a non-integer argument, a negative wire, and adder, column or swap
wires that repeat or hold a control are a ``ValueError``), and emit each
gate as a (control mask, target mask) pair; the chain uses a
:class:`~shorsim.gates.RegisterLayout`.
Every block restores its scratch wires to 0 on in-domain inputs, which the
exhaustive checker in :mod:`shorsim.oracles` verifies wire by wire.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .gates import (MAX_WIDTH, Checkpoint, Network, RegisterLayout, _integer,
                    concatenate, qubit_bits, qubit_mask)


MAX_Q = 1 << 16  # largest q; see ArithParams.range_problem


class ConfigError(ValueError):
    """A refused input (``ArithParams.create``, ``ExperimentConfig``); ``field``
    names the field refused."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def config_integer(value, field: str) -> int:
    """``gates._integer`` of a field's value, refusing with a ``ConfigError``."""
    try:
        return _integer(value, field)
    except ValueError as err:
        raise ConfigError(field, str(err)) from None


@dataclass(frozen=True)
class ArithParams:
    """Classical inputs of a factoring instance: N, the base x, and q."""

    n: int
    x: int
    q: int
    bits: int

    @classmethod
    def create(cls, n: int, x: int, q: int) -> ArithParams:
        """The instance; an n, x or q that is not an integer, what
        ``range_problem`` refuses, and a base sharing a factor with n, is a
        ``ConfigError`` naming the field."""
        n, x, q = config_integer(n, "n"), config_integer(x, "x"), config_integer(q, "q")
        if problem := cls.range_problem(n, x, q):
            raise ConfigError(*problem)
        if (g := math.gcd(x, n)) != 1:
            raise ConfigError("x", f"gcd({x}, {n}) = {g}; {g} is already a factor of {n}")
        # The usual choice N^2 <= q <= 2 N^2 is advisory and not enforced.
        return cls(n, x, q, n.bit_length())

    @staticmethod
    def range_problem(n: int, x: int, q: int) -> tuple[str, str] | None:
        """The first of n, x and q out of range, as (name, message); a base
        sharing a factor with n is in range.

        q lies in ``2..MAX_Q``.  q is the component count of the initial
        state, and the outcome tables and the CSV give every second-register
        value q rows: at q = 2**16 a CSV ``shorsim run`` without events
        peaked at 88 MB resident for n=15 and at 224 MB for n=33.  The
        layout for n and q must fit ``MAX_WIDTH`` qubits, as basis strings
        are int64.
        """
        if n < 3:
            return "n", f"cannot factor {n}"
        if not 1 < x < n:
            return "x", f"base {x} must lie strictly between 1 and {n}"
        if not 2 <= q <= MAX_Q:
            return "q", f"q must lie in 2..{MAX_Q}, got {q}"
        width = RegisterLayout.for_factoring(n.bit_length(), q=q).qubit_count
        if width > MAX_WIDTH:
            return "n", (f"n={n} with q={q} needs {width} qubits; at most "
                         f"{MAX_WIDTH} are supported")
        return None


@dataclass(frozen=True)
class ResourceReport:
    qubits: int
    elementary_gates: int | None
    formula_gates: int

    def as_dict(self) -> dict:
        return {"qubits": self.qubits, "gates_exact": self.elementary_gates,
                "gates_formula": self.formula_gates}


def mod_inverse(c: int, n: int) -> int:
    """The multiplicative inverse of c mod n, ``pow(c, -1, n)``; a c or n
    that is not an integer is a ``ValueError``."""
    c, n = _integer(c, "c"), _integer(n, "n")
    if not 0 < c < n:
        raise ValueError(f"need 0 < c < n, got c={c}, n={n}")
    if (g := math.gcd(c, n)) != 1:
        raise ValueError(f"gcd({c}, {n}) = {g}; {g} is a factor of {n}, "
                         "no modular inverse exists")
    return pow(c, -1, n)


def _bit_adder(const_bit: int, ctl: int, s: int, k: int, carry: int = 0) -> list[tuple[int, int]]:
    """``build_bit_adder`` on masks, unchecked: the control mask ``ctl``, and
    the one-bit masks of the sum, keep and carry wires, ``carry`` 0 for none."""
    gates = []
    if carry:
        gates.append((ctl | s | k, carry))
        if const_bit:
            gates += [(ctl | s, carry), (ctl | k, carry)]
    gates.append((ctl | k, s))
    if const_bit:
        gates.append((ctl, s))
    return gates


def _swap(ctl: int, a: int, b: int) -> list[tuple[int, int]]:
    """``controlled_swap`` on the control mask and two one-bit masks, unchecked."""
    return [(b, a), (ctl | a, b), (b, a)]


def build_bit_adder(const_bit: int, controls: Sequence[int], sum_wire: int,
                    keep_wire: int, carry_wire: int | None) -> list[tuple[int, int]]:
    """One ripple column: add ``keep_wire + const_bit`` into ``sum_wire``.

    ``sum_wire`` enters holding the incoming carry and leaves holding the low
    bit of ``sum_wire + keep_wire + const_bit``; ``keep_wire`` is preserved;
    ``carry_wire`` (which must enter as 0) receives the high bit.  Pass
    ``carry_wire=None`` for the cheaper top column that only needs the low
    bit.  Everything is conditioned on ``controls``.  Wires that repeat or
    hold a control are a ``ValueError`` naming the arguments as given.
    """
    const_bit = _integer(const_bit, "const_bit")
    column = [sum_wire, keep_wire] + ([carry_wire] if carry_wire is not None else [])
    bits = qubit_bits([_integer(wire, name) for wire, name
                       in zip(column, ("sum_wire", "keep_wire", "carry_wire"))])
    ctl, used = qubit_mask(controls), reduce(or_, bits)
    if used.bit_count() < len(bits) or used & ctl:
        raise ValueError(f"bit adder wires must be distinct and not controls, got "
                         f"sum_wire={sum_wire!r}, keep_wire={keep_wire!r}, "
                         f"carry_wire={carry_wire!r}, controls={list(controls)}")
    return _bit_adder(const_bit, ctl, *bits)


def controlled_swap(controls: Sequence[int], a: int, b: int) -> list[tuple[int, int]]:
    """Exchange wires a and b; three NOTs, only the middle one controlled.
    Wires a and b the same or a control are a ``ValueError`` naming the
    arguments as given."""
    bit_a, bit_b = qubit_bits([_integer(a, "a"), _integer(b, "b")])
    ctl = qubit_mask(controls)
    if bit_a == bit_b or (bit_a | bit_b) & ctl:
        raise ValueError(f"swap wires must be distinct and not controls, got a={a!r}, "
                         f"b={b!r}, controls={list(controls)}")
    return _swap(ctl, bit_a, bit_b)


def build_adder(y: int, reg: Sequence[int], work: Sequence[int],
                controls: Sequence[int] = ()) -> Network:
    """Controlled ``X -> X + y`` on the ``reg`` wires.

    Needs ``len(reg) + 1`` scratch wires, all entering as 0, and is only
    correct when ``X + y`` fits in ``len(reg)`` bits.  Stage one ripples the
    sum into the scratch wires, stage two swaps it into the register, stage
    three sets the top scratch bit and un-ripples ``2**m - y`` so the
    leftover copy of ``X`` cancels back to 0.  Each wire is made a mask
    once.  Unless y is 0, which builds no gate, the m register wires and
    the first m + 1 scratch wires must be 2m + 1 distinct wires, none a
    control, or the build is a ``ValueError`` naming the lists as given.
    """
    m, y = len(reg), _integer(y, "y")
    if not 0 <= y < (1 << m):
        raise ValueError(f"constant {y} does not fit in {m} bits")
    if len(work) < m + 1:
        raise ValueError(f"adder on {m} wires needs {m + 1} scratch wires")
    regs, works, ctl = qubit_bits(reg), qubit_bits(work), qubit_mask(controls)
    qubit_count = reduce(or_, regs + works, ctl).bit_length()
    if y == 0:
        return Network([], qubit_count)
    used = reduce(or_, regs + works[:m + 1])
    if used.bit_count() < 2 * m + 1 or used & ctl:
        raise ValueError(f"adder wires must be distinct and not controls, got reg={list(reg)}, "
                         f"work={list(work)}, controls={list(controls)}")
    gates = []
    for i in range(m):
        carry = works[i + 1] if i < m - 1 else 0
        gates += _bit_adder((y >> i) & 1, ctl, works[i], regs[i], carry)
    for i in range(m):
        gates += _swap(ctl, regs[i], works[i])
    gates.append((ctl, works[m]))
    complement = (1 << m) - y
    unwind = []
    for i in range(m):
        unwind += _bit_adder((complement >> i) & 1, ctl, works[i], regs[i], works[i + 1])
    gates += reversed(unwind)
    return Network(gates, qubit_count)


def build_mod_adder(y: int, n: int, value: Sequence[int], flag_lo: int,
                    flag_hi: int, work: Sequence[int],
                    controls: Sequence[int] = ()) -> Network:
    """Controlled ``X -> (X + y) mod n`` for X, y < n on the ``value`` wires.

    Five adder stages: add y; add ``2**(L+1) - n`` (a subtraction in
    disguise), which parks the comparison ``X + y < n`` on ``flag_lo``; add n
    back conditioned on ``flag_lo``; then recompute the comparison into
    ``flag_hi`` by adding ``2**L - y``, cancel the record with a NOT, and
    un-add to restore the scratch.  Correct only for in-range inputs --
    out-of-range values leave garbage that the exhaustive checker flags.
    """
    bits, y, n = len(value), _integer(y, "y"), _integer(n, "n")
    if not 0 <= y < n:
        raise ValueError(f"addend {y} must lie in [0, {n})")
    if n.bit_length() > bits:
        raise ValueError(f"modulus {n} does not fit in {bits} bits")
    if len(work) < bits + 3:
        raise ValueError(f"mod-{n} adder needs {bits + 3} scratch wires")
    qubit_count = qubit_mask([*value, flag_lo, flag_hi, *work, *controls]).bit_length()
    gates = []
    gates += build_adder(y, [*value, flag_lo], work[:bits + 2], controls).gates
    gates += build_adder((1 << (bits + 1)) - n, [*value, flag_lo, flag_hi],
                         work[:bits + 3], controls).gates
    gates += build_adder(n, [*value, flag_hi], work[:bits + 2],
                         (*controls, flag_lo)).gates
    gates.append((qubit_mask(controls), qubit_mask([flag_hi])))
    recompute = build_adder((1 << bits) - y, [*value, flag_hi],
                            work[:bits + 2], controls).gates
    gates += recompute
    gates.append((qubit_mask((*controls, flag_hi)), qubit_mask([flag_lo])))
    gates += reversed(recompute)
    scratch = qubit_mask([*work, flag_lo, flag_hi])
    return Network(gates, qubit_count, [Checkpoint(len(gates), scratch)])


def build_controlled_multiplier(c: int, n: int, reg: Sequence[int],
                                acc: Sequence[int], flag_lo: int, flag_hi: int,
                                work: Sequence[int],
                                controls: Sequence[int] = ()) -> Network:
    """Controlled ``I -> I * c mod n`` on the ``reg`` wires; identity when off.

    The accumulator picks up ``sum_i I_i * (2**i c) mod n`` through mod-N
    adders keyed on the input bits, a mirrored pass with the inverse factor
    erases the input copy from ``reg``, and a controlled swap moves the
    product back.  When the control is off every internal gate stays inert,
    which realizes multiplication by 1.
    """
    bits = len(reg)
    if len(acc) != bits:
        raise ValueError("accumulator and input register must have equal width")
    inverse = mod_inverse(c, n)  # refuses a non-integer, and gcd(c, n) != 1
    qubit_count = qubit_mask([*reg, *acc, flag_lo, flag_hi, *work, *controls]).bit_length()
    scratch = qubit_mask([*work, flag_lo, flag_hi])
    gates: list[tuple[int, int]] = []
    checkpoints: list[Checkpoint] = []
    for i in range(bits):
        gates += build_mod_adder((c << i) % n, n, acc, flag_lo, flag_hi,
                                 work, (*controls, reg[i])).gates
        checkpoints.append(Checkpoint(len(gates), scratch))
    for i in reversed(range(bits)):
        gates += reversed(build_mod_adder((inverse << i) % n, n, reg, flag_lo,
                                          flag_hi, work, (*controls, acc[i])).gates)
        checkpoints.append(Checkpoint(len(gates), scratch))
    for i in range(bits):
        gates += controlled_swap(controls, reg[i], acc[i])
    checkpoints.append(Checkpoint(len(gates), qubit_mask(acc) | scratch))
    return Network(gates, qubit_count, checkpoints)


def build_modexp(params: ArithParams, layout: RegisterLayout) -> Network:
    """The full chain mapping ``|a>|0> -> |a>|x^a mod n>``.

    A NOT seeds the result register with 1, then each exponent bit drives a
    controlled multiplier by the precomputed factor ``x**(2**i) mod n``.
    Exponent wires are only ever used as controls; an ``add_work`` too
    narrow is the mod-N adder's refusal.
    """
    bits = params.bits
    if len(layout.reg2) != bits or len(layout.mult_work) != bits + 1:
        raise ValueError("layout width does not match the modulus size")
    acc = list(layout.mult_work)[:bits]
    flag_hi = layout.mult_work[bits]
    flag_lo = layout.modn_flag
    pieces = [Network([(0, 1 << layout.reg2.start)], layout.qubit_count)]
    for i, exp_wire in enumerate(layout.reg1):
        factor = pow(params.x, 1 << i, params.n)
        pieces.append(build_controlled_multiplier(
            factor, params.n, list(layout.reg2), acc, flag_lo, flag_hi,
            list(layout.add_work), controls=(exp_wire,)))
    return concatenate(pieces, layout.qubit_count)


def qubit_count_formula(bits: int) -> int:
    """The qubit total 5L+8 of factoring an L-bit number, with the wide
    (2L+1) exponent register."""
    return 5 * bits + 8


def gate_count_formula(bits: int) -> int:
    """Polynomial estimate of the elementary-gate count of the full chain; a
    ``bits`` that is not an integer is a ``ValueError``."""
    bits = _integer(bits, "bits")
    return 240 * bits**3 + 484 * bits**2 + 182 * bits


def resource_estimate(bits: int) -> ResourceReport:
    """Space and time requirements for factoring an ``bits``-bit number.

    The qubit total is ``qubit_count_formula``.  The exact gate count comes
    from building the chain for the canonical instance n = 2**L - 1, x = 2;
    the polynomial estimate is reported alongside for comparison.  For
    L = 1 no valid instance exists, so only the formula values are filled
    in.  A ``bits`` that is not an integer, or below 1, is a ``ValueError``."""
    bits = _integer(bits, "bits")
    if bits < 1:
        raise ValueError("bit width must be positive")
    exact = None
    if bits >= 2:
        n = (1 << bits) - 1
        # counted, never run, so the limits of range_problem do not apply
        params = ArithParams(n, 2, 1 << (2 * bits + 1), bits)
        layout = RegisterLayout.for_factoring(bits)
        exact = len(build_modexp(params, layout).gates)
    return ResourceReport(qubit_count_formula(bits), exact, gate_count_formula(bits))
