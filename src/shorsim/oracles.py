"""Independent brute-force oracles used by the tests and the acceptance suite.

Everything here works on plain integers and shares no code with the circuit
builders, so agreement between the two is real evidence.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .gates import Network, _integer, apply_network_batch


def modpow(x: int, a: int, n: int) -> int:
    """x**a mod n by repeated squaring (delegates to the built-in pow); a
    negative exponent is a ``ValueError``, not a modular inverse's power."""
    x, a, n = _integer(x, "x"), _integer(a, "a"), _integer(n, "n")
    if n < 1:
        raise ValueError("modulus must be positive")
    if a < 0:
        raise ValueError(f"exponent a={a} must be at least 0")
    return pow(x, a, n)


def multiplicative_order(x: int, n: int) -> int:
    """Least r > 0 with x**r = 1 (mod n); requires n >= 2 and gcd(x, n) = 1."""
    x, n = _integer(x, "x"), _integer(n, "n")
    if n < 2:
        raise ValueError(f"modulus n={n} must be at least 2")
    if math.gcd(x, n) != 1:
        raise ValueError(f"gcd({x}, {n}) != 1, no order exists")
    value, r = x % n, 1
    while value != 1:
        value = value * x % n
        r += 1
    return r


def direct_outcome_table(n: int, x: int, q: int) -> np.ndarray:
    """Outcome table P(c, r2) by direct summation over all exponents a < q.

    For each residue class x**k the amplitude at c is the plain sum of the
    phases exp(2 pi i a c / q) over every a < q mapping to that class.
    """
    n, x, q = _integer(n, "n"), _integer(x, "x"), _integer(q, "q")
    r = multiplicative_order(x, n)
    table = np.zeros((q, 1 << n.bit_length()))
    c = np.arange(q)
    for k in range(min(r, q)):
        a_vals = np.arange(k, q, r)
        phases = np.exp(2j * np.pi * np.outer(a_vals, c) / q)
        table[:, pow(x, k, n)] = np.abs(phases.sum(axis=0) / q) ** 2
    return table


def folded_outcome_table(n: int, x: int, q: int) -> np.ndarray:
    """The same table through the folded closed form.

    The phase sum for class k collapses to a geometric sum over b of
    exp(2 pi i b {rc}/q), where {rc} is the representative of r*c (mod q)
    in (-q/2, q/2].
    """
    n, x, q = _integer(n, "n"), _integer(x, "x"), _integer(q, "q")
    r = multiplicative_order(x, n)
    table = np.zeros((q, 1 << n.bit_length()))
    for k in range(min(r, q)):
        top = (q - 1 - k) // r
        for c in range(q):
            folded = r * c % q
            if folded > q // 2:
                folded -= q
            amp = sum(cmath.exp(2j * cmath.pi * b * folded / q)
                      for b in range(top + 1))
            table[c, pow(x, k, n)] = abs(amp / q) ** 2
    return table


def outcome_table_oracle(n: int, x: int, q: int) -> np.ndarray:
    """Cross-checked outcome table used as the reference for the simulator.

    Both evaluation routes are computed and must agree to 1e-12; the direct
    sum is returned.
    """
    direct = direct_outcome_table(n, x, q)
    folded = folded_outcome_table(n, x, q)
    gap = np.max(np.abs(direct - folded))
    if gap > 1e-12:
        raise RuntimeError(f"probability oracle self-check failed: gap {gap}")
    return direct


@dataclass(frozen=True)
class Mismatch:
    value: int
    expected: int
    got: int
    leaked: int  # raw basis string of the offending output

    def __str__(self) -> str:
        return (f"input {self.value}: expected {self.expected}, got {self.got}"
                f" (raw output {self.leaked:#x})")


def _scatter(values: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    out = np.zeros_like(values)
    for j, wire in enumerate(wires):
        out |= ((values >> j) & 1) << wire
    return out


def _gather(raw: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    out = np.zeros_like(raw)
    for j, wire in enumerate(wires):
        out |= ((raw >> wire) & 1) << j
    return out


def exhaustive_network_check(net: Network, semantic: Callable[[int], int],
                             domain: Iterable[int], in_wires: Sequence[int],
                             out_wires: Sequence[int] | None = None,
                             zero_wires: Sequence[int] = (),
                             set_wires: Sequence[int] = ()) -> list[Mismatch]:
    """Compare a network against an integer function over a finite domain.

    Each domain value is planted on ``in_wires`` (with ``set_wires`` forced
    to 1 and everything else 0), the network is applied, and the value read
    back from ``out_wires`` must equal ``semantic(value)``.  All
    ``zero_wires`` must come back 0 and the ``set_wires`` must stay 1; when
    the output lives on different wires than the input, the input must
    additionally be preserved.  Returns every counterexample found.  A
    domain value or a wire that is not an integer is a ``ValueError``.
    """
    values = np.array([_integer(v, "value") for v in domain], dtype=np.int64)
    in_wires, zero_wires, set_wires = ([_integer(w, "wire") for w in wires]
                                       for wires in (in_wires, zero_wires, set_wires))
    reads_back = out_wires is None
    out_wires = in_wires if reads_back else [_integer(w, "wire") for w in out_wires]
    if values.size == 0:
        return []
    start = _scatter(values, in_wires)
    for wire in set_wires:
        start |= 1 << wire
    raw = apply_network_batch(start, net)
    got = _gather(raw, out_wires)
    expected = np.array([semantic(int(v)) for v in values.tolist()], dtype=np.int64)
    ok = got == expected
    for wire in zero_wires:
        ok &= (raw >> wire) & 1 == 0
    for wire in set_wires:
        ok &= (raw >> wire) & 1 == 1
    if not reads_back:
        ok &= _gather(raw, in_wires) == values
    return [Mismatch(int(v), int(e), int(g), int(r))
            for v, e, g, r in zip(values[~ok], expected[~ok], got[~ok], raw[~ok])]
