"""Generalized-Toffoli gate IR and its classical (permutation) semantics.

Every gate is a NOT on one target qubit conditioned on an arbitrary set of
control qubits (possibly empty, so plain NOT and CNOT are included), held
as a (control mask, target mask) pair.  On computational basis states such
a gate is a self-inverse permutation, which lets whole networks be
evaluated on plain integers.  Basis strings are integers with qubit 0 as
the least significant bit.
"""
from __future__ import annotations

import struct
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, groupby, starmap
from operator import index, or_
from typing import NamedTuple

import numpy as np


MAX_WIDTH = 62  # basis strings and gate masks are int64


def _integer(value, name: str, owner=None) -> int:
    """``operator.index`` of the value; what it refuses is a ``ValueError``
    saying that ``name=value``, or ``owner``'s ``name``, must be an integer."""
    try:
        return index(value)
    except TypeError:
        what = f"{owner}: the {name}" if owner is not None else f"{name}={value!r}"
        raise ValueError(f"{what} must be an integer") from None


def _integers(values, name: str, width: int | None = None) -> None:
    """Refuse, as a ``ValueError`` naming ``name``, an array not of an integer
    dtype and, given a ``width``, basis strings outside ``0..2**width - 1``."""
    dtype = np.asarray(values).dtype
    if not np.issubdtype(dtype, np.integer):
        raise ValueError(f"{name} must hold integers, not {dtype}")
    if width is not None and int(np.bitwise_or.reduce(values)) >> width:  # or negative
        raise ValueError(f"{name} must hold basis strings in 0..2**{width} - 1")


def qubit_bits(qubits: Iterable[int]) -> list[int]:
    """The one-bit mask of each qubit index, in order; an index that is not
    an integer, or is negative, is a ``ValueError``."""
    bits = []
    for q in qubits:
        if type(q) is not int:  # skips the call on the builders' hot path
            q = _integer(q, "qubit")
        if q < 0:
            raise ValueError(f"negative qubit index {q}")
        bits.append(1 << q)
    return bits


def qubit_mask(qubits: Iterable[int]) -> int:
    """The bit mask of some qubit indices, refused as ``qubit_bits`` refuses."""
    return reduce(or_, qubit_bits(qubits), 0)


@lru_cache(maxsize=1 << 16)  # a network has a few thousand distinct masks
def mask_bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of a mask, ascending, one step per set
    bit (the lowest, ``mask & -mask``); a negative mask is a ``ValueError``."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def gate_masks(controls: Iterable[int], target: int) -> tuple[int, int]:
    """The gate on qubit indices as its (control mask, target mask) pair of
    ints: flip the target iff every control is 1.  Refuses non-integers, negatives."""
    return (qubit_mask(_integer(c, "control") for c in controls),
            qubit_mask([_integer(target, "target")]))


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
        """The checkpoint on qubit indices; refuses non-integers, a negative index."""
        return cls(_integer(position, "position"), qubit_mask(qubits))

    @property
    def qubits(self) -> tuple[int, ...]:
        return mask_bits(self.mask)


@dataclass(frozen=True)
class Network:
    """An ordered gate list plus checkpoint annotations; time runs left to
    right, on ``qubit_count`` qubits.  A negative width, and the first
    checkpoint with a position or mask that is not an integer, a position
    outside ``0..len(gates)`` or below an earlier one, or a mask negative or
    not below ``2**qubit_count``, is a ``ValueError`` when made; numpy
    integers are kept as ints.  The properties below are built on first use
    and cached; equality and hashing compare the three fields only."""

    gates: tuple[tuple[int, int], ...]  # (control mask, target mask) pairs
    qubit_count: int
    checkpoints: tuple[Checkpoint, ...] = ()

    def __init__(self, gates: Iterable[tuple[int, int]], qubit_count: int,
                 checkpoints: Iterable[Checkpoint] = ()):
        object.__setattr__(self, "gates", tuple(gates))
        object.__setattr__(self, "qubit_count", width := _integer(qubit_count, "qubit_count"))
        if width < 0:
            raise ValueError(f"qubit_count {width} is negative")
        checked, last, count = [], 0, len(self.gates)
        for k, (position, mask) in enumerate(checkpoints):
            position = _integer(position, "position", f"checkpoint {k}")
            if not last <= position <= count:
                raise ValueError(f"checkpoint {k}: position {position} outside {last}..{count}")
            if (mask := _integer(mask, "mask", f"checkpoint {k}")) < 0:
                raise ValueError(f"checkpoint {k}: negative mask")
            if high := mask >> width:
                low = width + (high & -high).bit_length() - 1
                raise ValueError(f"checkpoint {k}: qubit {low} outside width {width}")
            checked.append(Checkpoint(position, mask))
            last = position
        object.__setattr__(self, "checkpoints", tuple(checked))

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """``compile_masks`` of this network, built on first use, then cached."""
        return compile_masks(self)

    @cached_property
    def groups(self) -> list[FusedBlock]:
        """Both table levels: the gates cut into blocks on at most
        ``FUSE_WIRES`` wires, also at every checkpoint position, and the
        blocks into groups on at most ``BLOCK_WIRES``, which no checkpoint
        cuts; each cut greedy (``_spans``).  A group of one block is that
        block; one of several is a ``FusedBlock`` over their gates, with
        those blocks as its ``parts``.  Every network that compiles fuses."""
        return self._grouped(set())

    @cached_property
    def checkpoint_groups(self) -> list[FusedBlock]:
        """The same blocks in groups also cut at every checkpoint position."""
        return self._grouped({chk.position for chk in self.checkpoints})

    @cached_property
    def touches(self) -> tuple[memoryview, ...]:
        """Per qubit, the indices of the gates touching it, ascending, as a
        view of C ints: indexing it makes a Python int, storing it none."""
        wires = np.bitwise_or(*self.masks)
        return tuple(memoryview(np.flatnonzero(wires >> w & 1).astype(np.intc))
                     for w in range(self.qubit_count))

    @cached_property
    def _blocks(self) -> list[FusedBlock]:
        ctrl, tgt = self.masks
        positions = {chk.position for chk in self.checkpoints}
        return _fuse(ctrl, tgt, self.qubit_count, _spans(ctrl | tgt, positions, FUSE_WIRES))

    def _grouped(self, cuts: set[int]) -> list[FusedBlock]:
        """The blocks in groups, also cut at each position in ``cuts``."""
        blocks, (ctrl, tgt) = self._blocks, self.masks
        touched = np.bitwise_or.reduceat(ctrl | tgt, [b.start for b in blocks])
        cut = {i for i, block in enumerate(blocks) if block.start in cuts}
        runs = [tuple(blocks[a:b]) for a, b in _spans(touched, cut, BLOCK_WIRES)]
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
    ``swap_ancilla`` is a reserved scratch wire.  The first overlap, flag not
    an integer or gap below ``swap_ancilla`` is a ``ValueError`` when made.
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
        (enough for any q up to 2 N^2).  A ``bits`` or ``q`` that is not an
        integer is a ``ValueError``.
        """
        bits = _integer(bits, "bits")
        reg1_width = (_integer(q, "q") - 1).bit_length() if q is not None else 2 * bits + 1
        pos = 0
        reg1 = range(pos, pos + reg1_width); pos = reg1.stop
        reg2 = range(pos, pos + bits); pos = reg2.stop
        mult_work = range(pos, pos + bits + 1); pos = mult_work.stop
        add_work = range(pos, pos + bits + 3); pos = add_work.stop
        modn_flag = pos
        swap_ancilla = pos + 1
        return cls(reg1, reg2, mult_work, add_work, modn_flag, swap_ancilla)

    def __post_init__(self):
        seen: dict[int, str] = {}
        for name in ("reg1", "reg2", "mult_work", "add_work", "modn_flag", "swap_ancilla"):
            role = getattr(self, name)
            for idx in role if isinstance(role, range) else [_integer(role, name)]:
                if idx in seen:
                    raise ValueError(f"{name} overlaps {seen[idx]} at qubit {idx}")
                seen[idx] = name
        if sorted(seen) != list(range(self.qubit_count)):
            raise ValueError("layout does not cover a contiguous index range")

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


_MASK_PAIR = struct.Struct("=qq")  # a gate's (control mask, target mask) as int64s


def _pair_problems(gates: Sequence) -> list[str]:
    """``gate {i}: ...`` for each gate that is not a pair of masks that
    ``operator.index`` takes (ints, numpy integers), in order."""
    problems = []
    for i, gate in enumerate(gates):
        try:
            control, target = gate
        except (TypeError, ValueError):  # not iterable, or not two items
            problems.append(f"gate {i}: {gate!r} is not a (control mask, target mask) pair")
            continue
        try:
            _integer(control, "control mask", f"gate {i}")
            _integer(target, "target mask", f"gate {i}")
        except ValueError as err:
            problems.append(str(err))
    return problems


def _checked_masks(net: Network) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The gate masks as two int64 arrays, and every problem of the gates, all
    checked at once: a target not one bit or among the controls, a mask not
    below ``2**qubit_count`` (at most ``2**MAX_WIDTH``), a gate on more than
    ``BLOCK_WIRES`` wires.  A network with a gate that is not a pair of
    integers (``_pair_problems``) reports those gates alone, and no masks."""
    width, gates, count = net.qubit_count, net.gates, len(net.gates)
    try:  # struct refuses a gate that is not two integers, or a mask beyond int64
        flat = np.fromiter(starmap(_MASK_PAIR.pack, gates), np.dtype("V16"), count).view(np.int64)
    except (struct.error, TypeError):
        if problems := _pair_problems(gates):
            empty = np.zeros(0, np.int64)
            return empty, empty, problems
        # a mask beyond int64, as an int; the checks below name it
        flat = np.array(list(map(index, chain.from_iterable(gates))), dtype=object)
    ctrl, tgt = flat.reshape(count, 2).T.copy()
    if width > MAX_WIDTH:
        return ctrl, tgt, [f"networks wider than {MAX_WIDTH} qubits are not supported"]
    problems = []
    outside = ((ctrl | tgt) >> width) != 0  # negative masks too
    not_one_bit = (tgt == 0) | ((tgt & (tgt - 1)) != 0)
    counts = np.bitwise_count(np.where(outside, 0, ctrl | tgt).astype(np.int64))
    bad = outside | not_one_bit | ((ctrl & tgt) != 0) | (counts > BLOCK_WIRES)
    for i in np.flatnonzero(bad).tolist():
        c, t = int(ctrl[i]), int(tgt[i])
        if c < 0 or t < 0:
            problem = "negative mask"
        elif outside[i]:
            problem = f"touches qubit {(c | t).bit_length() - 1} outside width {width}"
        elif not_one_bit[i]:
            problem = f"target mask {t:#x} is not one qubit"
        elif c & t:
            problem = f"target {t.bit_length() - 1} is also a control"
        else:
            problem = f"touches {counts[i]} wires; a fused block holds at most {BLOCK_WIRES}"
        problems.append(f"gate {i}: {problem}")
    return ctrl, tgt, problems


def compile_masks(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """The validated (control_mask, target_mask) int64 arrays of a network,
    built afresh on every call (``Network.masks`` caches them); the first
    gate problem ``validate_network`` reports is a ``ValueError``."""
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
    moved = int(np.bitwise_or.reduce(tgt, initial=0))
    before = _read_planes(comp, int(np.bitwise_or.reduce(ctrl, initial=moved)))
    controls, targets = memoryview(ctrl), memoryview(tgt)  # ints made one at a time
    after = _run_gates(list(before), controls, targets, (1 << len(comp)) - 1)
    _xor_planes(comp, ((w, after[w] ^ before[w]) for w in mask_bits(moved)
                       if after[w] != before[w]))


def decay_through(comp: np.ndarray, ctrl: np.ndarray, tgt: np.ndarray, qubit: int,
                  check: Callable[[int], object]) -> tuple[np.ndarray, np.ndarray]:
    """A decay on ``qubit`` just after the gates that ``apply_masks`` would
    run, carried back before them, on a contiguous int64 array of basis
    strings that it leaves as it is: the mask of the strings whose ``qubit``
    is 1 after the gates, and, in order, each of those strings with that bit
    cleared after the gates and the gates then run back, last gate first.
    ``check`` gets the number of strings hit before the mask or any decayed
    string is made.

    One plane read, the gates forward and back through ``_run_gates``, and
    one XOR of the changed planes into a copy: a string not hit comes back
    as it was, so only the hit strings' planes change.
    """
    moved = int(np.bitwise_or.reduce(tgt, initial=1 << qubit))
    before = _read_planes(comp, int(np.bitwise_or.reduce(ctrl, initial=moved)))
    controls, targets = memoryview(ctrl), memoryview(tgt)
    ones = (1 << len(comp)) - 1
    planes = _run_gates(list(before), controls, targets, ones)
    hit, planes[qubit] = planes[qubit], 0
    check(hit.bit_count())
    _run_gates(planes, controls[::-1], targets[::-1], ones)
    mask = np.unpackbits(np.frombuffer(hit.to_bytes((len(comp) + 7) >> 3, "little"),
                                       dtype=np.uint8), count=len(comp),
                         bitorder="little").view(bool)
    decayed = comp.copy()
    _xor_planes(decayed, ((w, planes[w] ^ before[w]) for w in mask_bits(moved)
                          if planes[w] != before[w]))
    return mask, decayed[mask]


def _read_planes(comp: np.ndarray, wires: int) -> list[int]:
    """The bit plane of each wire in the mask ``wires`` of a contiguous int64
    array (another dtype is a ``ValueError``), at that wire's index in the
    list (0 at the other indices): bit i of plane w is bit w of ``comp[i]``.
    Each byte of wires is one ``np.packbits`` of its byte column, which
    packs any non-zero as a 1."""
    if comp.dtype != np.int64:
        raise ValueError(f"basis strings must be int64, not {comp.dtype}")
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
    """Apply the network to many basis strings at once, gate by gate, into a new
    int64 array; values not 1-D, and strings a ``MAX_WIDTH``-qubit ``SparseState``
    refuses, are a ``ValueError`` before any gate."""
    if (out := np.asarray(values)).ndim != 1:
        raise ValueError(f"values must be a 1-D array, not of shape {out.shape}")
    out = out if len(out) else np.zeros(0, np.int64)  # [] is float
    _integers(out, "values", MAX_WIDTH)
    out = out.astype(np.int64)
    apply_masks(out, *net.masks)
    return out


def apply_network(bits: int, net: Network) -> int:
    """Apply the network to one basis string: a one-row ``apply_network_batch``;
    a string that is not an integer, or does not fit the width, is refused."""
    bits = _integer(bits, "bits")
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
    gates run as 26-gate ``apply_masks`` calls; compiling refuses a gate on
    more than BLOCK_WIRES wires.  ``parts`` are the blocks that a group
    (``Network.groups``) fuses, in order, and empty for a block of gates.
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
    matching ``parts``, if any, as its parts; no span may touch more than
    ``BLOCK_WIRES`` wires, which ``_spans`` of compiled masks never do.

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
    """Every problem of the gates, those ``net.masks`` raises the first of
    (only the gates that are not pairs of integers, if any are not), and a
    layout of another width (a network checks its checkpoints, and a layout
    its roles, when made); an empty list means the network is well formed
    and can be fused."""
    problems = _checked_masks(net)[2]
    if layout is not None and layout.qubit_count != net.qubit_count:
        problems.append(f"layout has {layout.qubit_count} qubits, "
                        f"network has {net.qubit_count}")
    return problems


def concatenate(nets: Sequence[Network], qubit_count: int | None = None) -> Network:
    """Run networks back to back, shifting checkpoint positions; none make the empty network."""
    if qubit_count is None:
        qubit_count = max((net.qubit_count for net in nets), default=0)
    gates: list[tuple[int, int]] = []
    checkpoints: list[Checkpoint] = []
    for net in nets:
        offset = len(gates)
        gates.extend(net.gates)
        checkpoints.extend(Checkpoint(position + offset, mask)
                           for position, mask in net.checkpoints)
    return Network(gates, qubit_count, checkpoints)


def network_to_text(net: Network) -> str:
    """Serialize to the line format ``T <target> <control>...`` / ``CHK <pos> <qubit>...``;
    a network that ``compile_masks`` refuses is its ``ValueError``."""
    lines = [f"T {t.bit_length() - 1} {' '.join(map(str, mask_bits(c)))}".rstrip()
             for c, t in zip(*(masks.tolist() for masks in compile_masks(net)))]
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
