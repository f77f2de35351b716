"""Generalized-Toffoli gate IR and its classical (permutation) semantics.

Every gate is a NOT on one target qubit conditioned on an arbitrary set of
control qubits (possibly empty, so plain NOT and CNOT are included).  On
computational basis states such a gate is a self-inverse permutation, which
lets whole networks be evaluated on plain integers.  Basis strings are
integers with qubit 0 as the least significant bit.
"""
from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class Gate:
    """Flip ``target`` iff every qubit in ``controls`` is 1."""

    controls: frozenset[int]
    target: int

    def __init__(self, controls: Iterable[int], target: int):
        object.__setattr__(self, "controls", frozenset(controls))
        object.__setattr__(self, "target", int(target))

    @property
    def control_mask(self) -> int:
        m = 0
        for c in self.controls:
            m |= 1 << c
        return m

    @property
    def target_mask(self) -> int:
        return 1 << self.target

    def max_index(self) -> int:
        return max(self.target, max(self.controls, default=-1))


@dataclass(frozen=True)
class Checkpoint:
    """A position in a gate list where the listed qubits must hold 0.

    ``position`` counts gates already applied, so position 0 is before the
    first gate and position ``len(gates)`` is after the last one.
    """

    position: int
    qubits: frozenset[int]

    def __init__(self, position: int, qubits: Iterable[int]):
        object.__setattr__(self, "position", int(position))
        object.__setattr__(self, "qubits", frozenset(qubits))


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

    def __len__(self) -> int:
        return len(self.gates)

    def reversed(self) -> Network:
        """The mirror network (exact inverse permutation); checkpoints dropped."""
        return Network(reversed(self.gates), self.qubit_count)

    def compiled(self) -> CompiledNetwork:
        """The compiled form of this network, built on first use and cached."""
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

    def reg2_mask(self) -> int:
        return ((1 << len(self.reg2)) - 1) << self.reg2.start

    def work_mask(self) -> int:
        m = 0
        for w in self.work_qubits:
            m |= 1 << w
        return m

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


def _check_gate(gate: Gate, qubit_count: int | None) -> None:
    if gate.target in gate.controls:
        raise ValueError(f"gate target {gate.target} is also a control")
    if gate.target < 0 or any(c < 0 for c in gate.controls):
        raise ValueError("negative qubit index")
    if qubit_count is not None and gate.max_index() >= qubit_count:
        raise ValueError(f"gate touches qubit {gate.max_index()} "
                         f"outside width {qubit_count}")


def apply_gate(bits: int, gate: Gate, width: int | None = None) -> int:
    """Apply one gate to a basis string: flip the target iff all controls are 1."""
    _check_gate(gate, width)
    m = gate.control_mask
    if bits & m == m:
        return bits ^ gate.target_mask
    return bits


def apply_network(bits: int, net: Network) -> int:
    """Left-to-right fold of apply_gate over the network's gate list."""
    if bits < 0 or bits >= (1 << net.qubit_count):
        raise ValueError(f"basis string {bits} does not fit {net.qubit_count} qubits")
    for gate in net.gates:
        _check_gate(gate, net.qubit_count)
        m = gate.control_mask
        if bits & m == m:
            bits ^= gate.target_mask
    return bits


def compile_masks(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Precompute (control_mask, target_mask) arrays for the vectorized paths."""
    if net.qubit_count > 62:
        raise ValueError("networks wider than 62 qubits are not supported")
    ctrl = np.empty(len(net.gates), dtype=np.int64)
    tgt = np.empty(len(net.gates), dtype=np.int64)
    for i, gate in enumerate(net.gates):
        _check_gate(gate, net.qubit_count)
        ctrl[i] = gate.control_mask
        tgt[i] = gate.target_mask
    return ctrl, tgt


def apply_network_batch(values: Sequence[int] | np.ndarray, net: Network) -> np.ndarray:
    """Apply the network to many basis strings at once, gate by gate, with
    the masks cached by ``net.compiled()``."""
    compiled = net.compiled()
    out = np.asarray(values, dtype=np.int64).copy()
    for c, t in zip(compiled.ctrl.tolist(), compiled.tgt.tolist()):
        out ^= ((out & c) == c) * t
    return out


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
        spans, start, wires = [], 0, set()
        for g, gate in enumerate(self.gates):
            touched = wires | gate.controls | {gate.target}
            if g > start and (g in self.cuts or len(touched) > FUSE_WIRES):
                spans.append((start, g))
                start, touched = g, gate.controls | {gate.target}
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
            order = list(dict.fromkeys(g.target for g in run))
            targets = len(order)
            order += sorted({c for g in run for c in g.controls} - set(order))
            local = {w: i for i, w in enumerate(order)}
            key = tuple((tuple(sorted(local[c] for c in g.controls)),
                         local[g.target]) for g in run)
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
    """Collect structural problems; an empty list means the network is well formed."""
    problems = []
    for i, gate in enumerate(net.gates):
        try:
            _check_gate(gate, net.qubit_count)
        except ValueError as err:
            problems.append(f"gate {i}: {err}")
    last = 0
    for k, chk in enumerate(net.checkpoints):
        if chk.position < last:
            problems.append(f"checkpoint {k}: position {chk.position} decreases")
        if chk.position > len(net.gates):
            problems.append(f"checkpoint {k}: position {chk.position} beyond "
                            f"gate count {len(net.gates)}")
        bad = [q for q in chk.qubits if q < 0 or q >= net.qubit_count]
        if bad:
            problems.append(f"checkpoint {k}: qubit {bad[0]} outside width {net.qubit_count}")
        last = max(last, chk.position)
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
        checkpoints.extend(Checkpoint(chk.position + offset, chk.qubits)
                           for chk in net.checkpoints)
    return Network(gates, qubit_count, checkpoints)


def network_to_text(net: Network) -> str:
    """Serialize to the line format ``T <target> <control>...`` / ``CHK <pos> <qubit>...``."""
    lines = [f"T {g.target} {' '.join(map(str, sorted(g.controls)))}".rstrip()
             for g in net.gates]
    lines.extend(f"CHK {c.position} {' '.join(map(str, sorted(c.qubits)))}".rstrip()
                 for c in net.checkpoints)
    return "\n".join(lines) + "\n"


def network_from_text(text: str, qubit_count: int | None = None) -> Network:
    """Parse the text format; width is inferred from the indices unless given."""
    gates = []
    checkpoints = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "T":
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: gate line needs a target")
            gates.append(Gate([int(p) for p in parts[2:]], int(parts[1])))
        elif parts[0] == "CHK":
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: checkpoint line needs a position")
            checkpoints.append(Checkpoint(int(parts[1]), [int(p) for p in parts[2:]]))
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    if qubit_count is None:
        qubit_count = 1 + max((g.max_index() for g in gates), default=-1)
        for chk in checkpoints:
            qubit_count = max(qubit_count, 1 + max(chk.qubits, default=-1))
    checkpoints.sort(key=lambda c: c.position)
    return Network(gates, qubit_count, checkpoints)
