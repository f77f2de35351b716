"""Exact sparse simulation of Toffoli networks under spontaneous decay.

The joint computer--environment state is a map from (basis string,
environment record) to a complex amplitude, held in parallel numpy arrays.
Circuit gates permute basis strings, so the support only grows when a decay
event splits components into a persisting and a decayed branch, each tagged
with a fresh environment bit.  The transform of the first register is
applied analytically as a size-q discrete Fourier transform.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gates import Network, RegisterLayout

NORM_TOL = 1e-10
MAX_EVENTS = 63  # environment records are bit strings in an int64


@dataclass
class SparseState:
    """Amplitude map keyed by (computer basis string, environment record).

    ``env_count`` is the number of decay interactions so far; environment
    records are integers whose bit j stores the outcome of event j.
    """

    qubit_count: int
    env_count: int
    comp: np.ndarray
    env: np.ndarray
    amp: np.ndarray

    @property
    def component_count(self) -> int:
        return len(self.amp)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amp) ** 2))

    def copy(self) -> SparseState:
        return SparseState(self.qubit_count, self.env_count,
                           self.comp.copy(), self.env.copy(), self.amp.copy())

    def as_dict(self) -> dict[tuple[int, int], complex]:
        return {(int(c), int(e)): complex(a)
                for c, e, a in zip(self.comp, self.env, self.amp)}

    @classmethod
    def from_dict(cls, qubit_count: int, env_count: int,
                  amplitudes: dict[tuple[int, int], complex]) -> SparseState:
        keys = sorted(amplitudes)
        comp = np.array([k[0] for k in keys], dtype=np.int64)
        env = np.array([k[1] for k in keys], dtype=np.int64)
        amp = np.array([amplitudes[k] for k in keys], dtype=np.complex128)
        return cls(qubit_count, env_count, comp, env, amp)


@dataclass(frozen=True)
class DecayEvent:
    """A sudden computer-environment interaction at ``time`` on one qubit.

    Times are fractions of the total program duration, with 1 the end of
    the computation.
    """

    time: float
    qubit: int


@dataclass(frozen=True)
class StaticDecay:
    """Time-independent persistence probability."""

    p1: float

    def persist_probability(self, time: float, last_reset: float) -> float:
        return self.p1


@dataclass(frozen=True)
class ExponentialDecay:
    """Persistence decaying as exp(-gamma * t) from the qubit's clock origin."""

    gamma: float

    def persist_probability(self, time: float, last_reset: float) -> float:
        return math.exp(-self.gamma * max(time - last_reset, 0.0))


@dataclass(frozen=True)
class NoiseSchedule:
    events: tuple[DecayEvent, ...]
    law: StaticDecay | ExponentialDecay

    def __init__(self, events: Sequence[DecayEvent],
                 law: StaticDecay | ExponentialDecay):
        events = tuple(events)
        times = [ev.time for ev in events]
        if any(not 0.0 < t < 1.0 for t in times):
            raise ValueError("event times must lie strictly inside (0, 1)")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")
        if any(ev.qubit < 0 for ev in events):
            raise ValueError("negative qubit index in schedule")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "law", law)


@dataclass
class WatchdogClocks:
    """Per-qubit time of the last known-state measurement (0 at the start)."""

    last_reset: np.ndarray

    @classmethod
    def zeros(cls, qubit_count: int) -> WatchdogClocks:
        return cls(np.zeros(qubit_count))


@dataclass(frozen=True)
class EventRecord:
    """What the run loop actually applied for one decay event."""

    time: float
    qubit: int
    p1: float
    p2: float
    clock_origin: float


@dataclass
class Distribution:
    """Outcome table P(r1, r2); variant 'ned' (trace over scratch and
    environment) or 'ed' (scratch post-selected on 0, not renormalized)."""

    table: np.ndarray
    variant: str

    def total(self) -> float:
        return float(self.table.sum())

    def r2_slice(self, r2: int) -> np.ndarray:
        return self.table[:, r2]


def sample_schedule(n_events: int, n_qubits: int, seed: int,
                    law: StaticDecay | ExponentialDecay) -> NoiseSchedule:
    """Uniform random times (sorted) and uniform random qubits, seed-determined."""
    rng = np.random.default_rng(seed)
    while True:
        times = np.sort(rng.random(n_events))
        if n_events == 0 or (times[0] > 0.0 and len(np.unique(times)) == n_events):
            break
    qubits = rng.integers(0, n_qubits, size=n_events)
    events = [DecayEvent(float(t), int(qb)) for t, qb in zip(times, qubits)]
    return NoiseSchedule(events, law)


def init_state(q: int, layout: RegisterLayout) -> SparseState:
    """Uniform superposition of all exponents a < q, everything else 0."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if q > (1 << len(layout.reg1)):
        raise ValueError(f"q={q} does not fit in the {len(layout.reg1)}-qubit "
                         "first register")
    comp = np.arange(q, dtype=np.int64) << layout.reg1.start
    env = np.zeros(q, dtype=np.int64)
    amp = np.full(q, 1.0 / math.sqrt(q), dtype=np.complex128)
    return SparseState(layout.qubit_count, 0, comp, env, amp)


def _split(comp: np.ndarray, env: np.ndarray, amp: np.ndarray, env_index: int,
           qubit: int, p1: float, flip_from: int,
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    bit = np.int64(1 << qubit)
    hit = (comp & bit) != 0 if flip_from == 1 else (comp & bit) == 0
    p2 = 1.0 - p1
    stay = amp.copy()
    stay[hit] *= math.sqrt(p1)
    parts_c, parts_e, parts_a = [comp], [env], [stay]
    if p2 > 0.0:
        parts_c.append(comp[hit] ^ bit)
        parts_e.append(env[hit] | np.int64(1 << env_index))
        parts_a.append(amp[hit] * math.sqrt(p2))
    if p1 == 0.0:
        keep = ~hit
        parts_c[0], parts_e[0], parts_a[0] = comp[keep], env[keep], stay[keep]
    return (np.concatenate(parts_c), np.concatenate(parts_e),
            np.concatenate(parts_a))


def apply_decay(state: SparseState, qubit: int, p1: float,
                flip_from: int = 1) -> SparseState:
    """One sudden interaction with a fresh environment qubit.

    Components with the computer qubit in the decaying state split into a
    persisting branch (weight sqrt(p1), environment bit 0) and a decayed
    branch with the qubit flipped (weight sqrt(1 - p1), environment bit 1).
    Components already in the ground state are untouched apart from the
    record growing by one 0 bit.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("persistence probability must lie in [0, 1]")
    if not 0 <= qubit < state.qubit_count:
        raise ValueError(f"qubit {qubit} outside state width {state.qubit_count}")
    if state.env_count >= MAX_EVENTS:
        raise ValueError(f"the environment record holds at most {MAX_EVENTS} events")
    comp, env, amp = _split(state.comp, state.env, state.amp,
                            state.env_count, qubit, p1, flip_from)
    return SparseState(state.qubit_count, state.env_count + 1, comp, env, amp)


def run(state: SparseState, net: Network, schedule: NoiseSchedule,
        watchdog: str = "off", clocks: WatchdogClocks | None = None, *,
        flip_from: int = 1, event_log: list[EventRecord] | None = None,
        verify_norm: bool = False) -> SparseState:
    """Evolve through the network with decay events interleaved.

    An event at time t fires just before gate index ceil(t * G), G being the
    gate count.  With ``watchdog='on'`` every checkpoint resets the clocks of
    its listed qubits to the current time, so later decays of those qubits
    use the time since their last confirmation instead of the full elapsed
    time; register qubits never appear in checkpoints and keep counting from
    the start.  ``watchdog='strict'`` additionally projects the checkpoint
    qubits onto 0 and renormalizes, discarding detected-error branches.

    The network compiles once: the first run validates and caches its gate
    masks and applies them gate by gate.  The second run of the same
    ``Network`` object also fuses its gates into blocks, maximal runs of
    consecutive gates touching at most 14 wires, cut at every checkpoint
    position so that projections and clock resets fall between blocks.  From
    then on each block is one table lookup; a block with an event strictly
    inside it runs gate by gate.  The output is bit-identical either way.
    At most 63 decay events fit the environment record, and every event
    qubit must lie inside the state; both are checked before any gate.
    ``verify_norm`` checks the norm after every event, block and gate.
    """
    if watchdog not in ("off", "on", "strict"):
        raise ValueError(f"unknown watchdog mode {watchdog!r}")
    events = schedule.events
    if state.env_count + len(events) > MAX_EVENTS:
        raise ValueError(f"{state.env_count} recorded plus {len(events)} new "
                         f"decay events exceed the limit of {MAX_EVENTS}")
    for ev in events:
        if ev.qubit >= state.qubit_count:
            raise ValueError(f"event qubit {ev.qubit} outside state width "
                             f"{state.qubit_count}")
    compiled = net.compiled()
    blocks = compiled.plan()
    ctrl, tgt = compiled.ctrl, compiled.tgt
    total = len(net.gates)
    comp = state.comp.astype(np.int64)  # a private contiguous copy
    env = state.env.copy()
    amp = state.amp.copy()
    env_count = state.env_count
    if clocks is None:
        clocks = WatchdogClocks.zeros(state.qubit_count)

    positions = [min(math.ceil(ev.time * total), total) for ev in events]
    checkpoints = sorted(net.checkpoints, key=lambda c: c.position)
    ei = ci = 0

    def settle(g: int) -> None:
        """Fire the events, then the checkpoints, that sit before gate g."""
        nonlocal comp, env, amp, env_count, ei, ci
        while ei < len(events) and positions[ei] == g:
            ev = events[ei]
            origin = float(clocks.last_reset[ev.qubit])
            p1 = schedule.law.persist_probability(ev.time, origin)
            if event_log is not None:
                event_log.append(EventRecord(ev.time, ev.qubit, p1, 1.0 - p1,
                                             origin))
            comp, env, amp = _split(comp, env, amp, env_count, ev.qubit,
                                    p1, flip_from)
            env_count += 1
            ei += 1
            if verify_norm:
                _check_norm(amp, f"decay event at t={ev.time}")
        while ci < len(checkpoints) and checkpoints[ci].position == g:
            chk = checkpoints[ci]
            now = g / total if total else 0.0
            if watchdog in ("on", "strict"):
                clocks.last_reset[list(chk.qubits)] = now
            if watchdog == "strict":
                mask = np.int64(sum(1 << qb for qb in chk.qubits))
                keep = (comp & mask) == 0
                weight = float(np.sum(np.abs(amp[keep]) ** 2))
                if weight > 0.0:
                    comp, env = comp[keep], env[keep]
                    amp = amp[keep] / math.sqrt(weight)
            ci += 1

    spans = ([(0, total, None)] if blocks is None
             else [(b.start, b.stop, b) for b in blocks])
    for start, stop, block in spans:
        settle(start)
        if block is not None and (ei == len(events) or positions[ei] >= stop):
            block.apply(comp)
            if verify_norm:
                _check_norm(amp, f"gates {start}..{stop - 1}")
            continue
        for g in range(start, stop):
            if g > start:
                settle(g)
            c, t = int(ctrl[g]), int(tgt[g])
            comp ^= ((comp & c) == c) * t
            if verify_norm:
                _check_norm(amp, f"gate {g}")
    settle(total)
    return SparseState(state.qubit_count, env_count, comp, env, amp)


def _check_norm(amp: np.ndarray, where: str) -> None:
    norm = float(np.sum(np.abs(amp) ** 2))
    if abs(norm - 1.0) > NORM_TOL:
        raise AssertionError(f"norm drifted to {norm} after {where}")


def _grouped_transform(state: SparseState, q: int, layout: RegisterLayout,
                       inverse: bool) -> SparseState:
    shift = layout.reg1.start
    r1_mask = np.int64(layout.reg1_mask())
    a = (state.comp & r1_mask) >> shift
    if np.any(a >= q):
        raise ValueError("component with first-register value >= q")
    rest = state.comp & ~r1_mask
    keys = np.stack([rest, state.env], axis=1)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    dense = np.zeros((len(uniq), q), dtype=np.complex128)
    np.add.at(dense, (inv, a), state.amp)
    if inverse:
        out = np.fft.fft(dense, axis=1) / math.sqrt(q)
    else:
        out = np.fft.ifft(dense, axis=1) * math.sqrt(q)
    comp = (uniq[:, 0][:, None] | (np.arange(q, dtype=np.int64) << shift)).ravel()
    env = np.repeat(uniq[:, 1], q)
    return SparseState(state.qubit_count, state.env_count, comp, env,
                       out.ravel())


def fourier_first_register(state: SparseState, q: int,
                           layout: RegisterLayout) -> SparseState:
    """Size-q Fourier transform of the first register.

    For every fixed (rest-of-computer, environment) the amplitudes over a
    become (1/sqrt q) * sum_a exp(2 pi i a c / q) A(a).  All first-register
    values must be below q.
    """
    return _grouped_transform(state, q, layout, inverse=False)


def inverse_fourier_first_register(state: SparseState, q: int,
                                   layout: RegisterLayout) -> SparseState:
    return _grouped_transform(state, q, layout, inverse=True)


def _tables(state: SparseState, layout: RegisterLayout, q: int,
            select: np.ndarray | None) -> np.ndarray:
    r1 = (state.comp >> layout.reg1.start) & ((1 << len(layout.reg1)) - 1)
    r2 = (state.comp >> layout.reg2.start) & ((1 << len(layout.reg2)) - 1)
    weights = np.abs(state.amp) ** 2
    if select is not None:
        r1, r2, weights = r1[select], r2[select], weights[select]
    if np.any(r1 >= q):
        raise ValueError("component with first-register value >= q")
    table = np.zeros((q, 1 << len(layout.reg2)))
    np.add.at(table, (r1, r2), weights)
    return table


def distribution_ned(state: SparseState, layout: RegisterLayout,
                     q: int) -> Distribution:
    """P(r1, r2) with scratch wires and environment traced out."""
    return Distribution(_tables(state, layout, q, None), "ned")


def distribution_ed(state: SparseState, layout: RegisterLayout,
                    q: int) -> Distribution:
    """Joint probability of (r1, r2) *and* all scratch wires reading 0.

    Not renormalized; pointwise it can only lose weight relative to the
    no-error-detection table.
    """
    keep = (state.comp & np.int64(layout.work_mask())) == 0
    return Distribution(_tables(state, layout, q, keep), "ed")


def dump_state(state: SparseState) -> str:
    """Deterministic text snapshot: ``<computer-bits> <env-bits> <re> <im>``.

    Bit strings are most-significant-first; a lone ``-`` stands in for the
    environment record while no decay event has happened yet.  Lines are
    sorted lexicographically so snapshots diff cleanly.
    """
    lines = []
    for c, e, a in zip(state.comp, state.env, state.amp):
        cbits = format(int(c), f"0{state.qubit_count}b")
        ebits = format(int(e), f"0{state.env_count}b") if state.env_count else "-"
        re, im = a.real + 0.0, a.imag + 0.0  # fold -0.0 for stable snapshots
        lines.append(f"{cbits} {ebits} {re:.17g} {im:.17g}")
    return "\n".join(sorted(lines)) + "\n"
