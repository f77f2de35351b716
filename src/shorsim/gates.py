"""Generalized-Toffoli gate IR and its classical (permutation) semantics.

Every gate is a NOT on one target qubit conditioned on an arbitrary set of
control qubits (possibly empty, so plain NOT and CNOT are included), held
as a (control mask, target mask) pair.  On computational basis states such
a gate is a self-inverse permutation, which lets whole networks be
evaluated on plain integers.  Basis strings are integers with qubit 0 as
the least significant bit.
"""
from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np


MAX_WIDTH = 62  # basis strings and gate masks are int64


def qubit_mask(qubits: Iterable[int]) -> int:
    """The bit mask of some qubit indices; a negative index is a ``ValueError``."""
    mask = 0
    for q in qubits:
        if q < 0:
            raise ValueError(f"negative qubit index {q}")
        mask |= 1 << q
    return mask


@lru_cache(maxsize=1 << 16)  # a network has a few thousand distinct masks
def mask_bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of a non-negative mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class Gate(NamedTuple):
    """Flip the qubit in ``target_mask`` iff every qubit in ``control_mask`` is 1.

    The mask pair is the only form a gate takes.  ``Gate.of`` builds one
    from qubit indices; ``controls`` and ``target`` read them back.
    """

    control_mask: int
    target_mask: int

    @classmethod
    def of(cls, controls: Iterable[int], target: int) -> Gate:
        """The gate on qubit indices; negative indices are refused here."""
        return cls(qubit_mask(controls), qubit_mask([target]))

    @property
    def controls(self) -> tuple[int, ...]:
        return mask_bits(self.control_mask)

    @property
    def target(self) -> int:
        return self.target_mask.bit_length() - 1


class Checkpoint(NamedTuple):
    """A position in a gate list where the qubits in ``mask`` must hold 0.

    ``position`` counts gates already applied, so position 0 is before the
    first gate and position ``len(gates)`` is after the last one.
    ``Checkpoint.of`` builds one from qubit indices; ``qubits`` reads them back.
    """

    position: int
    mask: int

    @classmethod
    def of(cls, position: int, qubits: Iterable[int]) -> Checkpoint:
        """The checkpoint on qubit indices; negative indices are refused here."""
        return cls(int(position), qubit_mask(qubits))

    @property
    def qubits(self) -> tuple[int, ...]:
        return mask_bits(self.mask)


@dataclass(frozen=True)
class Network:
    """An ordered gate list plus checkpoint annotations; time runs left to right."""

    gates: tuple[Gate, ...]
    qubit_count: int
    checkpoints: tuple[Checkpoint, ...] = ()

    def __init__(self, gates: Iterable[Gate], qubit_count: int,
                 checkpoints: Iterable[Checkpoint] = ()):
        object.__setattr__(self, "gates", tuple(gates))
        object.__setattr__(self, "qubit_count", int(qubit_count))
        object.__setattr__(self, "checkpoints", tuple(checkpoints))

    def reversed(self) -> Network:
        """The mirror network (exact inverse permutation); checkpoints dropped."""
        return Network(reversed(self.gates), self.qubit_count)

    def compiled(self) -> CompiledNetwork:
        """The compiled form of this network, built and validated on first use,
        then cached; the first problem ``validate_network`` reports raises."""
        cached = self.__dict__.get("_compiled")
        if cached is None:
            cached = CompiledNetwork(self)
            object.__setattr__(self, "_compiled", cached)
        return cached


@dataclass(frozen=True)
class RegisterLayout:
    """Assignment of qubit indices to the roles of the factoring circuit.

    reg1 holds the exponent (low bits of the basis integer so its value can
    be read off directly), reg2 holds the mod-N value, ``mult_work`` is the
    multiplier accumulator plus one overflow wire, ``add_work`` is the adder
    ripple scratch, ``modn_flag`` records the mod-N comparison branch and
    ``swap_ancilla`` is a reserved scratch wire.
    """

    reg1: range
    reg2: range
    mult_work: range
    add_work: range
    modn_flag: int
    swap_ancilla: int

    @classmethod
    def for_factoring(cls, bits: int, reg1_width: int | None = None,
                      q: int | None = None) -> RegisterLayout:
        """Pack a layout for factoring an L-bit number.

        ``reg1_width`` defaults to the width needed for q-1, or 2L+1 when no
        q is given (enough for any q up to 2 N^2).
        """
        if reg1_width is None:
            reg1_width = (q - 1).bit_length() if q is not None else 2 * bits + 1
        pos = 0
        reg1 = range(pos, pos + reg1_width); pos = reg1.stop
        reg2 = range(pos, pos + bits); pos = reg2.stop
        mult_work = range(pos, pos + bits + 1); pos = mult_work.stop
        add_work = range(pos, pos + bits + 3); pos = add_work.stop
        modn_flag = pos
        swap_ancilla = pos + 1
        return cls(reg1, reg2, mult_work, add_work, modn_flag, swap_ancilla)

    @property
    def qubit_count(self) -> int:
        return self.swap_ancilla + 1

    @property
    def register_qubits(self) -> list[int]:
        return [*self.reg1, *self.reg2]

    @property
    def work_qubits(self) -> list[int]:
        """Everything that must be 0 at the start and end of the computation."""
        return [*self.mult_work, *self.add_work, self.modn_flag, self.swap_ancilla]

    def reg1_mask(self) -> int:
        return ((1 << len(self.reg1)) - 1) << self.reg1.start

    def work_mask(self) -> int:
        return qubit_mask(self.work_qubits)

    def validate(self) -> list[str]:
        problems = []
        ranges = [("reg1", self.reg1), ("reg2", self.reg2),
                  ("mult_work", self.mult_work), ("add_work", self.add_work),
                  ("modn_flag", range(self.modn_flag, self.modn_flag + 1)),
                  ("swap_ancilla", range(self.swap_ancilla, self.swap_ancilla + 1))]
        seen: dict[int, str] = {}
        for name, rng in ranges:
            for idx in rng:
                if idx in seen:
                    problems.append(f"{name} overlaps {seen[idx]} at qubit {idx}")
                seen[idx] = name
        if sorted(seen) != list(range(self.qubit_count)):
            problems.append("layout does not cover a contiguous index range")
        return problems


def _checked_masks(net: Network) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The gate masks as two int64 arrays, and every problem of the network,
    all gates checked at once: a target not one bit or among the controls, a
    mask not below ``2**qubit_count`` (at most ``2**MAX_WIDTH``), a checkpoint
    position outside ``0..len(gates)`` or decreasing, a checkpoint mask
    negative or not below ``2**qubit_count``."""
    width, count = net.qubit_count, len(net.gates)
    try:
        flat = np.fromiter(chain.from_iterable(net.gates), np.int64, 2 * count)
    except OverflowError:  # a mask beyond int64; the checks below name it
        flat = np.array(list(chain.from_iterable(net.gates)), dtype=object)
    ctrl, tgt = flat.reshape(count, 2).T.copy()
    if width > MAX_WIDTH:
        return ctrl, tgt, [f"networks wider than {MAX_WIDTH} qubits are not supported"]
    problems = []
    outside = ((ctrl | tgt) >> width) != 0  # negative masks too
    not_one_bit = (tgt == 0) | ((tgt & (tgt - 1)) != 0)
    for i in np.flatnonzero(outside | not_one_bit | ((ctrl & tgt) != 0)).tolist():
        c, t = int(ctrl[i]), int(tgt[i])
        if c < 0 or t < 0:
            problem = "negative mask"
        elif outside[i]:
            problem = f"touches qubit {(c | t).bit_length() - 1} outside width {width}"
        elif not_one_bit[i]:
            problem = f"target mask {t:#x} is not one qubit"
        else:
            problem = f"target {t.bit_length() - 1} is also a control"
        problems.append(f"gate {i}: {problem}")
    last = 0
    for k, (position, mask) in enumerate(net.checkpoints):
        if not last <= position <= count:
            problems.append(f"checkpoint {k}: position {position} outside {last}..{count}")
        if mask < 0:
            problems.append(f"checkpoint {k}: negative mask")
        elif high := mask >> width:
            low = width + (high & -high).bit_length() - 1
            problems.append(f"checkpoint {k}: qubit {low} outside width {width}")
        last = max(last, position)
    return ctrl, tgt, problems


def compile_masks(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """The validated (control_mask, target_mask) int64 arrays of a network;
    the first problem ``validate_network`` reports is a ``ValueError``."""
    ctrl, tgt, problems = _checked_masks(net)
    if problems:
        raise ValueError(problems[0])
    return ctrl, tgt


def apply_network_batch(values: Sequence[int] | np.ndarray, net: Network) -> np.ndarray:
    """Apply the network to many basis strings at once, gate by gate."""
    compiled = net.compiled()
    out = np.asarray(values, dtype=np.int64).copy()
    for c, t in zip(compiled.ctrl.tolist(), compiled.tgt.tolist()):
        out ^= ((out & c) == c) * t
    return out


def apply_network(bits: int, net: Network) -> int:
    """Apply the network to one basis string: a one-row ``apply_network_batch``."""
    if not 0 <= bits < 1 << net.qubit_count:
        raise ValueError(f"basis string {bits} does not fit {net.qubit_count} qubits")
    return int(apply_network_batch([bits], net)[0])


def apply_gate(bits: int, gate: Gate, width: int = MAX_WIDTH) -> int:
    """Apply one gate to a basis string: flip the target iff all controls are 1."""
    return apply_network(bits, Network([gate], width))


FUSE_WIRES = 14  # wires per fused block; at most 16, as tables are uint16
_LITTLE = sys.byteorder == "little"
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1  # value -> its 8 bits


@dataclass(frozen=True, eq=False)
class FusedBlock:
    """Gates ``start .. stop-1`` of a network as one permutation lookup.

    The block's k <= FUSE_WIRES wires get local indices, targets first.
    ``gather`` holds (byte offset, 256-entry table) pairs that map each byte
    of a basis string holding block wires to their local bits; ``table``
    maps the local input to the local XOR delta; ``scatter`` maps each byte
    of that delta back to global bits.
    """

    start: int
    stop: int
    table: np.ndarray
    gather: tuple[tuple[int, np.ndarray], ...]
    scatter: tuple[tuple[int, np.ndarray], ...]

    def apply(self, comp: np.ndarray) -> None:
        """Run the block on a contiguous int64 array of basis strings, in place."""
        raw = comp.view(np.uint8)
        (byte, tab), *rest = self.gather
        local = tab[raw[byte::8]]
        for byte, tab in rest:
            local |= tab[raw[byte::8]]
        delta = self.table[local].view(np.uint8)
        for byte, tab in self.scatter:
            comp ^= tab[delta[byte::2]]


@lru_cache(maxsize=None)
def _identity_planes(k: int) -> tuple[int, ...]:
    """Bit plane j over all 2^k local inputs i: bit i of plane j is bit j of i."""
    inputs = np.arange(1 << k)
    return tuple(int.from_bytes(np.packbits((inputs >> j) & 1, bitorder="little")
                                .tobytes(), "little") for j in range(k))


def _block_table(local_gates: Sequence[tuple[tuple[int, ...], int]],
                 k: int) -> np.ndarray:
    """XOR delta of a local gate list for every local input.

    Each wire is a 2^k-bit plane held in one Python int, so a gate costs one
    AND per extra control and one XOR over all inputs at once.
    """
    identity = _identity_planes(k)
    size = 1 << k
    planes = list(identity)
    for controls, target in local_gates:
        cond = planes[controls[0]] if controls else (1 << size) - 1
        for c in controls[1:]:
            cond &= planes[c]
        planes[target] ^= cond
    table = np.zeros(size, dtype=np.uint16)
    for j, (plane, start) in enumerate(zip(planes, identity)):
        if plane != start:
            moved = (plane ^ start).to_bytes(max(1, size >> 3), "little")
            bits = np.unpackbits(np.frombuffer(moved, dtype=np.uint8),
                                 bitorder="little")[:size]
            table |= bits.astype(np.uint16) << j
    return table


class CompiledNetwork:
    """A network's masks, validated once, and its fused blocks.

    The mask arrays ``ctrl`` and ``tgt`` drive the gate-by-gate kernel.
    ``blocks`` is built on first access, which ``run()`` makes on the
    network's first run; callers that only need the masks never build it.
    """

    def __init__(self, net: Network):
        self.ctrl, self.tgt = compile_masks(net)
        self.gates = net.gates
        self.cuts = {chk.position for chk in net.checkpoints}

    def spans(self) -> list[tuple[int, int]]:
        """Maximal runs of gates touching <= FUSE_WIRES wires, also cut at
        every checkpoint position."""
        spans, start, wires = [], 0, 0
        for g, (c, t) in enumerate(self.gates):
            touched = wires | c | t
            if g > start and (g in self.cuts or touched.bit_count() > FUSE_WIRES):
                spans.append((start, g))
                start, touched = g, c | t
            wires = touched
        if start < len(self.gates):
            spans.append((start, len(self.gates)))
        return spans

    @cached_property
    def blocks(self) -> list[FusedBlock]:
        """One block per span; equal local gate lists share one table."""
        tables: dict[tuple, np.ndarray] = {}
        byte_tables: dict[tuple, np.ndarray] = {}

        def byte_table(weights: tuple[int, ...], dtype) -> np.ndarray:
            key = (weights, dtype)
            if key not in byte_tables:
                byte_tables[key] = (_BYTE_BITS @ np.array(weights, dtype=np.int64)
                                    ).astype(dtype)
            return byte_tables[key]

        blocks = []
        for start, stop in self.spans():
            run = self.gates[start:stop]
            order = [t.bit_length() - 1 for t in dict.fromkeys(t for _, t in run)]
            targets = len(order)
            controls = int(np.bitwise_or.reduce(self.ctrl[start:stop]))
            order += mask_bits(controls & ~qubit_mask(order))
            local = {w: i for i, w in enumerate(order)}
            key = tuple((tuple(sorted(local[w] for w in mask_bits(c))),
                         local[t.bit_length() - 1]) for c, t in run)
            if key not in tables:
                tables[key] = _block_table(key, len(order))
            gather = []
            for byte in sorted({w >> 3 for w in order}):
                weights = tuple(1 << local[w] if w in local else 0
                                for w in range(8 * byte, 8 * byte + 8))
                gather.append((byte if _LITTLE else 7 - byte,
                               byte_table(weights, np.uint16)))
            scatter = []
            for byte in range((targets + 7) >> 3):
                chunk = order[8 * byte:min(8 * byte + 8, targets)]
                weights = tuple(1 << w for w in chunk) + (0,) * (8 - len(chunk))
                scatter.append((byte if _LITTLE else 1 - byte,
                                byte_table(weights, np.int64)))
            blocks.append(FusedBlock(start, stop, tables[key], tuple(gather),
                                     tuple(scatter)))
        return blocks


def validate_network(net: Network, layout: RegisterLayout | None = None) -> list[str]:
    """Every structural problem, those ``net.compiled()`` raises the first of
    and the layout's; an empty list means the network is well formed."""
    problems = _checked_masks(net)[2]
    if layout is not None:
        problems.extend(layout.validate())
        if layout.qubit_count != net.qubit_count:
            problems.append(f"layout has {layout.qubit_count} qubits, "
                            f"network has {net.qubit_count}")
    return problems


def concatenate(nets: Sequence[Network], qubit_count: int | None = None) -> Network:
    """Run networks back to back, shifting checkpoint positions accordingly."""
    if qubit_count is None:
        qubit_count = max(net.qubit_count for net in nets)
    gates: list[Gate] = []
    checkpoints: list[Checkpoint] = []
    for net in nets:
        offset = len(gates)
        gates.extend(net.gates)
        checkpoints.extend(Checkpoint(position + offset, mask)
                           for position, mask in net.checkpoints)
    return Network(gates, qubit_count, checkpoints)


def network_to_text(net: Network) -> str:
    """Serialize to the line format ``T <target> <control>...`` / ``CHK <pos> <qubit>...``."""
    lines = [f"T {g.target} {' '.join(map(str, g.controls))}".rstrip()
             for g in net.gates]
    lines.extend(f"CHK {c.position} {' '.join(map(str, c.qubits))}".rstrip()
                 for c in net.checkpoints)
    return "\n".join(lines) + "\n"


def network_from_text(text: str, qubit_count: int | None = None) -> Network:
    """Parse the text format; width is inferred from the indices unless given.

    Each malformed line is a ``ValueError`` that starts ``line N:``."""
    gates = []
    checkpoints = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        kind, *fields = parts
        if kind not in ("T", "CHK"):
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
        if not fields:
            need = ("gate line needs a target" if kind == "T"
                    else "checkpoint line needs a position")
            raise ValueError(f"line {lineno}: {need}")
        try:
            first, *rest = map(int, fields)
            if kind == "T":
                gates.append(Gate.of(rest, first))
            else:
                checkpoints.append(Checkpoint.of(first, rest))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    if qubit_count is None:
        qubit_count = max([(c | t).bit_length() for c, t in gates]
                          + [mask.bit_length() for _, mask in checkpoints], default=0)
    checkpoints.sort(key=lambda c: c.position)
    return Network(gates, qubit_count, checkpoints)
