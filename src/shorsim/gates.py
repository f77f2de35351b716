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
from functools import cached_property, lru_cache, reduce
from itertools import chain, groupby
from operator import or_
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


def gate_masks(controls: Iterable[int], target: int) -> tuple[int, int]:
    """The gate on qubit indices as its (control mask, target mask) pair:
    flip the target iff every control is 1.  Negative indices are refused."""
    return qubit_mask(controls), qubit_mask([target])


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
    """An ordered gate list plus checkpoint annotations; time runs left to
    right.  ``masks``, ``blocks`` and ``groups`` are built on first use and
    cached on the instance; equality and hashing compare the three fields
    only."""

    gates: tuple[tuple[int, int], ...]  # (control mask, target mask) pairs
    qubit_count: int
    checkpoints: tuple[Checkpoint, ...] = ()

    def __init__(self, gates: Iterable[tuple[int, int]], qubit_count: int,
                 checkpoints: Iterable[Checkpoint] = ()):
        object.__setattr__(self, "gates", tuple(gates))
        object.__setattr__(self, "qubit_count", int(qubit_count))
        object.__setattr__(self, "checkpoints", tuple(checkpoints))

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """``compile_masks`` of this network, built on first use, then cached."""
        return compile_masks(self)

    @cached_property
    def blocks(self) -> list[FusedBlock]:
        """The fused blocks, built on first use, then cached: one per maximal
        run of gates touching at most ``FUSE_WIRES`` wires, also cut at every
        checkpoint position, all built at once by ``_fuse``; a gate touching
        more than ``BLOCK_WIRES`` wires is a ``ValueError`` naming it."""
        ctrl, tgt = self.masks
        cuts = {chk.position for chk in self.checkpoints}
        return _fuse(ctrl, tgt, self.qubit_count, _spans(ctrl | tgt, cuts, FUSE_WIRES))

    @cached_property
    def groups(self) -> list[FusedBlock]:
        """The blocks in groups, built on first use, then cached: one per
        maximal run of consecutive blocks that together touch at most
        ``BLOCK_WIRES`` wires and that no checkpoint position cuts, cut by
        the same ``_spans`` as the gates.  A group of one block is that
        block; a group of several is one ``FusedBlock`` over all their
        gates, with those blocks as its ``parts`` and its table built by
        ``_fuse`` as theirs are."""
        blocks, (ctrl, tgt) = self.blocks, self.masks
        positions = {chk.position for chk in self.checkpoints}
        touched = np.bitwise_or.reduceat(ctrl | tgt, [b.start for b in blocks])
        cuts = {i for i, block in enumerate(blocks) if block.start in positions}
        runs = [tuple(blocks[a:b]) for a, b in _spans(touched, cuts, BLOCK_WIRES)]
        several = [run for run in runs if len(run) > 1]
        fused = iter(_fuse(ctrl, tgt, self.qubit_count,
                           [(run[0].start, run[-1].stop) for run in several], several))
        return [next(fused) if len(run) > 1 else run[0] for run in runs]


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
    def for_factoring(cls, bits: int, *, q: int | None = None) -> RegisterLayout:
        """Pack a layout for factoring an L-bit number.

        reg1 is as wide as q-1 needs, or 2L+1 qubits when no q is given
        (enough for any q up to 2 N^2).
        """
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
    """The validated (control_mask, target_mask) int64 arrays of a network,
    built afresh on every call (``Network.masks`` caches them); the first
    problem ``validate_network`` reports is a ``ValueError``."""
    ctrl, tgt, problems = _checked_masks(net)
    if problems:
        raise ValueError(problems[0])
    return ctrl, tgt


def apply_masks(comp: np.ndarray, ctrl: np.ndarray, tgt: np.ndarray) -> None:
    """Apply the gates with these control and target masks, int64 arrays of
    equal length, in order to a contiguous int64 array of basis strings, in
    place; strings of another dtype are a ``ValueError``.

    The strings are bit-sliced: each wire the gates touch becomes a bit
    plane, a Python int whose bit i is that wire of string i, so a gate
    costs one AND per extra control and one XOR over all strings at once
    (``_run_gates``).  Planes are read, and the changed ones XORed back, a
    byte of wires at a time: at 10^6 strings the peak is 13 MB with 26
    wires touched and 18 MB with all 62, below a state's 32 bytes per
    component.
    """
    if comp.dtype != np.int64:
        raise ValueError(f"basis strings must be int64, not {comp.dtype}")
    controls, targets = ctrl.tolist(), tgt.tolist()
    moved = reduce(or_, targets, 0)
    before = _read_planes(comp, reduce(or_, controls, moved))
    after = _run_gates(list(before), controls, targets, (1 << len(comp)) - 1)
    _xor_planes(comp, ((w, after[w] ^ before[w]) for w in mask_bits(moved)
                       if after[w] != before[w]))


def _read_planes(comp: np.ndarray, wires: int) -> list[int]:
    """The bit plane of each wire in the mask ``wires`` of a contiguous int64
    array, at that wire's index in the list (0 at the other indices): bit i
    of plane w is bit w of ``comp[i]``.  Each byte of wires is one
    ``np.packbits`` of its byte column, which packs any non-zero as a 1."""
    raw, planes = comp.view(np.uint8), [0] * wires.bit_length()
    for byte in range((wires.bit_length() + 7) >> 3):
        if bits := mask_bits(wires >> 8 * byte & 255):
            weights = np.array([1 << b for b in bits], dtype=np.uint8)[:, None]
            rows = np.packbits(raw[_BYTE_OFFSETS[byte]::8] & weights, axis=1,
                               bitorder="little")
            data, size = rows.tobytes(), rows.shape[1]
            for i, b in enumerate(bits):
                planes[8 * byte + b] = int.from_bytes(data[i * size:(i + 1) * size], "little")
    return planes


def _run_gates(planes: list[int], controls: Iterable[int], targets: Iterable[int],
               ones: int) -> list[int]:
    """Run the gates with these control and target masks over the indices of
    ``planes`` on the planes, in order, in place, and return them; ``ones``
    is the plane of all 1s, the condition of a gate without controls."""
    for c, t in zip(controls, targets):
        wires = mask_bits(c)
        cond = planes[wires[0]] if wires else ones
        for w in wires[1:]:
            cond &= planes[w]
        planes[t.bit_length() - 1] ^= cond
    return planes


def _xor_planes(comp: np.ndarray, flips: Iterable[tuple[int, int]]) -> None:
    """XOR each (wire, plane) pair, the wires ascending, into that wire of a
    contiguous int64 array, in place: each plane is unpacked to one byte
    per string and shifted to its wire's bit, and each byte of wires is
    one XOR into its byte column."""
    raw, count = comp.view(np.uint8), len(comp)
    size = (count + 7) >> 3
    for byte, pairs in groupby(flips, key=lambda pair: pair[0] >> 3):
        raw[_BYTE_OFFSETS[byte]::8] ^= reduce(or_, (
            np.unpackbits(np.frombuffer(plane.to_bytes(size, "little"), dtype=np.uint8),
                          count=count, bitorder="little") << (wire & 7)
            for wire, plane in pairs))


def apply_network_batch(values: Sequence[int] | np.ndarray, net: Network) -> np.ndarray:
    """Apply the network to many basis strings at once, gate by gate."""
    out = np.asarray(values, dtype=np.int64).copy()
    apply_masks(out, *net.masks)
    return out


def apply_network(bits: int, net: Network) -> int:
    """Apply the network to one basis string: a one-row ``apply_network_batch``."""
    if not 0 <= bits < 1 << net.qubit_count:
        raise ValueError(f"basis string {bits} does not fit {net.qubit_count} qubits")
    return int(apply_network_batch([bits], net)[0])


BLOCK_WIRES = 16  # local bits a uint16 gather entry or table index holds
FUSE_WIRES = 14  # wires per fused block; at most BLOCK_WIRES
# the memory offset of each byte of an int64, least significant first
_BYTE_OFFSETS = range(8) if sys.byteorder == "little" else range(7, -1, -1)
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(np.float64)
# [m, v]: the bits of byte v at the set bits of byte m, packed low (the
# "compress" of Hacker's Delight, section 7-4), as an exact float64 product:
# bit i of v weighs 2**(m's set bits below i) if bit i of m is set, else 0
_EXTRACT = (_BYTE_BITS * 2 ** (np.cumsum(_BYTE_BITS, axis=1) - _BYTE_BITS)
            @ _BYTE_BITS.T).astype(np.uint16)


@dataclass(frozen=True, eq=False)
class FusedBlock:
    """Gates ``start .. stop-1`` of a network as one permutation lookup.

    The gates change only the block's own wires, by an amount that depends
    only on those wires' input, so the block's whole effect is one XOR
    delta per local input.  Local index j stands for the block's j-th
    lowest wire, k <= BLOCK_WIRES of them.  ``gather`` holds (byte offset,
    256-entry table) pairs that extract the block wires' bits from each
    byte of a basis string holding some; ``table`` maps the local input to
    the int64 XOR delta on the whole basis string.  Every lookup reads its
    tables with ``ndarray.take``, which reads the same elements as
    ``tab[idx]`` but skips numpy's general advanced-indexing path: with the
    strided byte and uint16 indices used here it is about 2x faster.  A
    lookup costs 3 to 10 single gates at 130 to 40,000 components, the
    gates run as 26-gate ``apply_masks`` calls.
    ``parts`` are the blocks that a group (``Network.groups``) fuses, in
    order, and empty for a block of gates.
    """

    start: int
    stop: int
    table: np.ndarray
    gather: tuple[tuple[int, np.ndarray], ...]
    parts: tuple[FusedBlock, ...] = ()

    def apply(self, comp: np.ndarray) -> None:
        """Run the block on a contiguous int64 array of basis strings, in place."""
        raw = comp.view(np.uint8)
        (byte, tab), *rest = self.gather
        local = tab.take(raw[byte::8])
        for byte, tab in rest:
            local |= tab.take(raw[byte::8])
        comp ^= self.table.take(local)


@lru_cache(maxsize=None)
def _identity_planes(k: int) -> tuple[int, ...]:
    """Bit plane j over all 2^k local inputs i: bit i of plane j is bit j of i."""
    return tuple(_read_planes(np.arange(1 << k, dtype=np.int64), (1 << k) - 1))


def _block_table(wires: Sequence[int], controls: Sequence[int],
                 targets: Sequence[int]) -> np.ndarray:
    """XOR delta on the whole basis string of a local gate list, given as
    control and target masks over the local wires, for every local input;
    local wire j is wire ``wires[j]``, ascending.

    The gates run on the 2^k-bit planes of the local inputs, through the
    same ``_run_gates`` as ``apply_masks``, and each plane's change is XORed
    into its wire of the table.
    """
    identity = _identity_planes(len(wires))
    size = 1 << len(wires)
    planes = _run_gates(list(identity), controls, targets, (1 << size) - 1)
    table = np.zeros(size, dtype=np.int64)
    _xor_planes(table, ((wire, plane ^ start) for wire, plane, start
                        in zip(wires, planes, identity) if plane != start))
    return table


def _extract(values: np.ndarray, masks: np.ndarray, width: int) -> np.ndarray:
    """The bits of each value at the set bits of its mask, packed low, for
    contiguous int64 arrays that broadcast, below ``2**width``: one
    ``_EXTRACT`` lookup per byte, shifted past the mask bits below it."""
    out = np.zeros(np.broadcast_shapes(values.shape, masks.shape), np.int64)
    value_bytes, mask_bytes, below = values.view(np.uint8), masks.view(np.uint8), 0
    for k in _BYTE_OFFSETS[:(width + 7) >> 3]:
        mask = mask_bytes[..., k::8]
        index = mask.astype(np.uint16) << 8 | value_bytes[..., k::8]
        out |= _EXTRACT.take(index).astype(np.int64) << below
        below = below + np.bitwise_count(mask)
    return out


def _gathers(touched: np.ndarray, width: int) -> list[tuple[tuple[int, np.ndarray], ...]]:
    """Per block, whose wire mask ``touched`` holds, the (byte offset, table)
    pair of each byte of a basis string holding block wires: ``_EXTRACT`` of
    the block's wires in that byte, shifted past those below it, one uint16
    table per distinct (wires, shift)."""
    shifts = np.arange(0, width, 8)
    masks = (touched[:, None] >> shifts) & 255  # block x byte
    below = np.bitwise_count(touched[:, None] & ((1 << shifts) - 1))
    rows, cols = np.nonzero(masks)
    keys, which = np.unique(masks[rows, cols] << 8 | below[rows, cols],
                            return_inverse=True)
    tables = list((_EXTRACT[keys >> 8] << (keys & 255)[:, None]).astype(np.uint16))
    pairs = [(_BYTE_OFFSETS[j], tables[i]) for j, i in zip(cols.tolist(), which.tolist())]
    bounds = np.cumsum(np.count_nonzero(masks, axis=1)).tolist()
    return [tuple(pairs[a:b]) for a, b in zip([0, *bounds], bounds)]


def _fuse(ctrl: np.ndarray, tgt: np.ndarray, width: int,
          spans: Sequence[tuple[int, int]],
          parts: Sequence[tuple[FusedBlock, ...]] = ()) -> list[FusedBlock]:
    """One ``FusedBlock`` per span (start, stop) of the gates whose masks
    ``ctrl`` and ``tgt`` hold, the spans ascending and disjoint, with the
    matching ``parts``, if any, as its parts.  A span touching more than
    ``BLOCK_WIRES`` wires, which only a lone gate can, is a ``ValueError``
    naming its first gate.

    A gate's local masks are ``_extract`` of its masks at its span's wires.
    Spans with equal local gate lists and equal global targets share one
    table, and bytes with equal wires and equal span wires below them one
    byte table; only the tables are built one by one.
    """
    if not spans:
        return []
    starts, stops = np.array(spans).T
    lengths = stops - starts
    firsts = np.cumsum(lengths) - lengths  # each span's first row of its gates
    rows = np.arange(lengths.sum()) + np.repeat(starts - firsts, lengths)
    ctrl, tgt = ctrl[rows], tgt[rows]
    touched = np.bitwise_or.reduceat(ctrl | tgt, firsts)
    ks = np.bitwise_count(touched)
    if (wide := np.flatnonzero(ks > BLOCK_WIRES)).size:  # a lone wide gate
        b = int(wide[0])
        raise ValueError(f"gate {starts[b]} touches {ks[b]} wires; a fused "
                         f"block holds at most {BLOCK_WIRES}")
    local = _extract(np.stack([ctrl, tgt]), np.repeat(touched, lengths), width)
    tables: dict[tuple, np.ndarray] = {}
    blocks = []
    for wires, first, count, (start, stop), gather, part in zip(
            touched.tolist(), firsts.tolist(), lengths.tolist(), spans,
            _gathers(touched, width), parts or [()] * len(spans)):
        block_masks = local[:, first:first + count]  # local controls, targets
        key = (block_masks.tobytes(), tgt[first:first + count].tobytes())
        if key not in tables:
            tables[key] = _block_table(mask_bits(wires), *block_masks.tolist())
        blocks.append(FusedBlock(start, stop, tables[key], gather, part))
    return blocks


def _spans(wires: np.ndarray, cuts: set[int], limit: int) -> list[tuple[int, int]]:
    """Maximal runs of consecutive units, gates or blocks, whose wire masks
    ``wires`` holds, touching at most ``limit`` wires together, also cut
    before every index in ``cuts``: greedy, each run as long as it can be."""
    spans, start, seen = [], 0, 0
    for g, mask in enumerate(wires.tolist()):
        touched = seen | mask
        if g > start and (g in cuts or touched.bit_count() > limit):
            spans.append((start, g))
            start, touched = g, mask
        seen = touched
    if start < len(wires):
        spans.append((start, len(wires)))
    return spans


def validate_network(net: Network, layout: RegisterLayout | None = None) -> list[str]:
    """Every structural problem, those ``net.masks`` raises the first of and
    the layout's; an empty list means the network is well formed."""
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
    gates: list[tuple[int, int]] = []
    checkpoints: list[Checkpoint] = []
    for net in nets:
        offset = len(gates)
        gates.extend(net.gates)
        checkpoints.extend(Checkpoint(position + offset, mask)
                           for position, mask in net.checkpoints)
    return Network(gates, qubit_count, checkpoints)


def network_to_text(net: Network) -> str:
    """Serialize to the line format ``T <target> <control>...`` / ``CHK <pos> <qubit>...``."""
    lines = [f"T {t.bit_length() - 1} {' '.join(map(str, mask_bits(c)))}".rstrip()
             for c, t in net.gates]
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
                gates.append(gate_masks(rest, first))
            else:
                checkpoints.append(Checkpoint.of(first, rest))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    if qubit_count is None:
        qubit_count = max([(c | t).bit_length() for c, t in gates]
                          + [mask.bit_length() for _, mask in checkpoints], default=0)
    checkpoints.sort(key=lambda c: c.position)
    return Network(gates, qubit_count, checkpoints)
