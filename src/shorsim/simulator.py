"""Exact sparse simulation of Toffoli networks under spontaneous decay.

The joint computer--environment state is a map from (basis string,
environment record) to a complex amplitude, held in parallel numpy arrays.
Circuit gates permute basis strings, so the support only grows when a decay
event splits components into a persisting and a decayed branch, each tagged
with a fresh environment bit.  The transform of the first register is
applied analytically as a size-q discrete Fourier transform.
"""
from __future__ import annotations

import bisect
import itertools
import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from .gates import (MAX_WIDTH, Checkpoint, FusedBlock, Network, RegisterLayout, _integer,
                    _integers, apply_masks, decay_through)

NORM_TOL = 1e-10
MAX_EVENTS = 63  # environment records are bit strings in an int64
TABLE_CHUNK = 1 << 16  # elements per step of the table and norm passes
# Dense elements from which the first-register transform splits its rows over
# two threads (``_in_halves``).  Two- over one-thread time, medians of
# alternating pairs on 2-vCPU Xeon VMs: 1.03x, 0.84x and 0.71x at 1.3e5, 2.7e5
# and 1.1e6 elements (61 pairs); later 1.03x, 1.03x, 0.98x and 1.04x at 1.3e5,
# 2.7e5, 1.1e6 and 3.9e6 (21 pairs, full rows of q = 130).  The table passes
# never split: they stream ``TABLE_CHUNK`` slices.
SPLIT_MIN = 1 << 18
# Components a decay may leave: 32 bytes each in comp, env and amp, and a few
# times that while an event splits the state and the tables group it.
MAX_COMPONENTS = 1 << 22


class ComponentBudgetError(ValueError):
    """A decay that would leave more than ``MAX_COMPONENTS`` components."""


@dataclass
class SparseState:
    """Amplitude map keyed by (computer basis string, environment record).

    ``env_count`` is the number of decay interactions so far; environment
    records are integers whose bit j stores the outcome of event j.  Each
    (comp, env) key appears at most once; the first-register transforms
    raise ``ValueError`` on a repeated key.  A ``qubit_count`` or
    ``env_count`` that is not an integer (numpy integers become Python
    ints), a ``qubit_count`` outside ``0..MAX_WIDTH``, an ``env_count``
    outside ``0..MAX_EVENTS``, ``comp``, ``env`` and ``amp`` that are not
    1-D arrays of one length, non-integer ``comp`` or ``env``, or a
    ``comp`` value outside ``0..2**qubit_count - 1`` are a ``ValueError``
    when the state is made.
    """

    qubit_count: int
    env_count: int
    comp: np.ndarray
    env: np.ndarray
    amp: np.ndarray

    def __post_init__(self):
        self.qubit_count = _integer(self.qubit_count, "qubit_count")
        self.env_count = _integer(self.env_count, "env_count")
        if not 0 <= self.qubit_count <= MAX_WIDTH:
            raise ValueError(f"state width {self.qubit_count} outside 0..{MAX_WIDTH}")
        if not 0 <= self.env_count <= MAX_EVENTS:
            raise ValueError(f"env_count={self.env_count} outside 0..{MAX_EVENTS}")
        shapes = [np.shape(a) for a in (self.comp, self.env, self.amp)]
        if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) != 1:
            raise ValueError("comp, env and amp must be 1-D arrays of one length, "
                             "not of shapes {}, {} and {}".format(*shapes))
        _integers(self.comp, "comp", self.qubit_count)
        _integers(self.env, "env")

    @property
    def component_count(self) -> int:
        return len(self.amp)

    def norm_squared(self) -> float:
        return _norm_squared(self.amp)

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
    """Time-independent persistence probability, in [0, 1]."""

    p1: float

    def __post_init__(self):
        if not isinstance(self.p1, Real):
            raise ValueError(f"persistence probability p1={self.p1!r} must be a real "
                             "number")
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"persistence probability p1={self.p1} must lie in [0, 1]")

    def persist_probability(self, time: float, last_reset: float) -> float:
        return self.p1


@dataclass(frozen=True)
class ExponentialDecay:
    """Persistence decaying as exp(-gamma * t) from the qubit's clock origin;
    gamma is finite and >= 0."""

    gamma: float

    def __post_init__(self):
        if not isinstance(self.gamma, Real):
            raise ValueError(f"decay rate gamma={self.gamma!r} must be a real number")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"decay rate gamma={self.gamma} must be finite and >= 0")

    def persist_probability(self, time: float, last_reset: float) -> float:
        return math.exp(-self.gamma * max(time - last_reset, 0.0))


def check_law(law) -> None:
    """Refuse, with a ``ValueError`` naming it, a law class in place of a law
    and a law without a callable ``persist_probability``; ``NoiseSchedule``
    and ``ExperimentConfig`` call it."""
    if isinstance(law, type):
        raise ValueError(f"law={law!r} is a class, not a law")
    if not callable(getattr(law, "persist_probability", None)):
        raise ValueError(f"law={law!r} has no callable persist_probability")


@dataclass(frozen=True)
class NoiseSchedule:
    """Decay events in time order under one law (``check_law``); each event's
    qubit is kept as the Python int that ``operator.index`` makes of it, and
    a time that is not a real number is a ``ValueError`` naming the event."""

    events: tuple[DecayEvent, ...]
    law: StaticDecay | ExponentialDecay

    def __init__(self, events: Sequence[DecayEvent],
                 law: StaticDecay | ExponentialDecay):
        check_law(law)
        events = tuple(events)
        for ev in events:
            if not isinstance(ev.time, Real):
                raise ValueError(f"{ev}: the time must be a real number")
        times = [ev.time for ev in events]
        if any(not 0.0 < t < 1.0 for t in times):
            raise ValueError("event times must lie strictly inside (0, 1)")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")
        events = tuple(DecayEvent(ev.time, _integer(ev.qubit, "qubit", ev))
                       for ev in events)
        if any(ev.qubit < 0 for ev in events):
            raise ValueError("negative qubit index in schedule")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "law", law)


@dataclass(frozen=True)
class EventRecord:
    """One decay event as ``run()`` applies it (``event_records``): time, qubit,
    gate ``position`` before any slide, p1, p2 = 1 - p1 and p1's clock origin."""

    time: float
    qubit: int
    position: int
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


def sample_schedule(n_events: int, n_qubits: int, seed: int,
                    law: StaticDecay | ExponentialDecay) -> NoiseSchedule:
    """Uniform random times (sorted) and uniform random qubits, seed-determined;
    an ``n_events``, ``n_qubits`` or ``seed`` that is not an integer, an
    ``n_events`` outside ``0..MAX_EVENTS``, an ``n_qubits`` below 1 or a
    negative ``seed`` is a ``ValueError``."""
    n_events = _integer(n_events, "n_events")
    n_qubits = _integer(n_qubits, "n_qubits")
    seed = _integer(seed, "seed")
    if not 0 <= n_events <= MAX_EVENTS:
        raise ValueError(f"n_events={n_events} outside 0..{MAX_EVENTS}")
    if n_qubits < 1:
        raise ValueError(f"n_qubits={n_qubits} must be at least 1")
    if seed < 0:
        raise ValueError(f"seed={seed} must be at least 0")
    rng = np.random.default_rng(seed)
    while True:
        times = np.sort(rng.random(n_events))
        if n_events == 0 or (times[0] > 0.0 and np.all(np.diff(times) > 0.0)):
            break
    qubits = rng.integers(0, n_qubits, size=n_events)
    events = [DecayEvent(float(t), int(qb)) for t, qb in zip(times, qubits)]
    return NoiseSchedule(events, law)


def init_state(q: int, layout: RegisterLayout) -> SparseState:
    """Uniform superposition of all exponents a < q, everything else 0; a q
    that is not an integer, below 2 or past the first register is a
    ``ValueError``."""
    q = _integer(q, "q")
    if q < 2:
        raise ValueError("q must be at least 2")
    if q > (1 << len(layout.reg1)):
        raise ValueError(f"q={q} does not fit in the {len(layout.reg1)}-qubit "
                         "first register")
    comp = np.arange(q, dtype=np.int64) << layout.reg1.start
    env = np.zeros(q, dtype=np.int64)
    amp = np.full(q, 1.0 / math.sqrt(q), dtype=np.complex128)
    return SparseState(layout.qubit_count, 0, comp, env, amp)


def _decay(comp: np.ndarray, env: np.ndarray, amp: np.ndarray, env_index: int,
           qubit: int, p1: float, where: str, gates: Sequence[np.ndarray] = (),
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A decay on ``qubit``, here or carried back through ``gates``, control
    and target masks (``decay_through``): every component, the hit ones
    weighted sqrt(p1) (dropped if p1 is 0), then unless p1 is 1 each hit
    one's decayed branch, its qubit cleared, record bit ``env_index`` set,
    weight sqrt(1 - p1).  A p1 outside [0, 1], or a split past
    ``MAX_COMPONENTS`` (``ComponentBudgetError`` naming ``where``, from the
    count of strings hit), is a ``ValueError`` before any decayed string."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"persistence probability {p1} outside [0, 1]")

    def check(hits: int) -> None:
        count = len(comp) + hits if 0.0 < p1 < 1.0 else len(comp)
        if count > MAX_COMPONENTS:
            raise ComponentBudgetError(f"{where} would leave {count} components, "
                                       f"past the budget of {MAX_COMPONENTS}")
    if gates:
        hit, decayed = decay_through(comp, *gates, qubit, check)
    else:
        bit = np.int64(1 << qubit)  # basis strings of any integer dtype
        hit = (comp & bit) != 0
        check(int(np.count_nonzero(hit)))
        decayed = comp[hit] ^ bit
    stay = amp.copy()
    stay[hit] *= math.sqrt(p1)
    keep = ~hit if p1 == 0.0 else slice(None)
    parts = [(comp[keep], env[keep], stay[keep])]
    if p1 < 1.0:
        parts.append((decayed, env[hit] | np.int64(1 << env_index),
                      amp[hit] * math.sqrt(1.0 - p1)))
    return tuple(map(np.concatenate, zip(*parts)))


def apply_decay(state: SparseState, qubit: int, p1: float) -> SparseState:
    """One sudden interaction with a fresh environment qubit.

    Components with the computer qubit at 1 split into a persisting branch
    (weight sqrt(p1), environment bit 0) and a decayed branch with the qubit
    flipped to 0 (weight sqrt(1 - p1), environment bit 1).  Components
    already in the ground state are untouched apart from the record growing
    by one 0 bit.  A qubit that is not an integer or lies outside the state,
    and a p1 outside [0, 1], is a ``ValueError``, and a split that would
    leave more than ``MAX_COMPONENTS`` components is a
    ``ComponentBudgetError`` (a ``ValueError``) before any array is made;
    ``run()`` makes these checks and this step (``_decay``) for each event.
    """
    qubit = _integer(qubit, "qubit")
    if not 0 <= qubit < state.qubit_count:
        raise ValueError(f"qubit {qubit} outside state width {state.qubit_count}")
    if state.env_count >= MAX_EVENTS:
        raise ValueError(f"the environment record holds at most {MAX_EVENTS} events")
    return SparseState(state.qubit_count, state.env_count + 1, *_decay(
        state.comp, state.env, state.amp, state.env_count, qubit, p1, f"decay on qubit {qubit}"))


def event_records(net: Network, schedule: NoiseSchedule,
                  watchdog: str = "off") -> list[EventRecord]:
    """One ``EventRecord`` per event of the schedule, in order, as ``run()``
    applies them in this watchdog mode.  An event at time t fires just
    before gate ceil(t * G) of G.  With the watchdog 'on' or 'strict', each
    checkpoint resets its qubits' clocks to its position over G (no register
    qubit is in one), after the events at that position: so an event's
    clock origin is its qubit's last reset strictly before it, 0.0 if none
    or with the watchdog 'off', and p1 is the law's from there.  Reads only
    ``net.gates`` and ``net.checkpoints``, so no masks are compiled and a
    network's next run stays its first.  An unknown mode is a ``ValueError``."""
    if watchdog not in ("off", "on", "strict"):
        raise ValueError(f"unknown watchdog mode {watchdog!r}")
    total = len(net.gates)
    resets = net.checkpoints if watchdog != "off" else ()
    records = []
    for ev in schedule.events:
        position = math.ceil(ev.time * total)
        before = bisect.bisect_left(resets, position, key=lambda chk: chk.position)
        origin = next((chk.position / total for chk in reversed(resets[:before])
                       if chk.mask >> ev.qubit & 1), 0.0)
        p1 = schedule.law.persist_probability(ev.time, origin)
        records.append(EventRecord(ev.time, ev.qubit, position, p1, 1.0 - p1, origin))
    return records


class Step(NamedTuple):
    """A ``plan`` step: ``"gates"`` a..b-1 in one ``apply_masks`` call; the
    ``"table"`` of block ``unit``, span a..b; ``"fire"`` the next event at b
    on the state at a, carried through ``ctrl[a:b]`` if a < b, ``ctrl[b:a][::-1]``
    if a > b; ``"project"`` onto strict checkpoint ``unit`` at a = b."""

    kind: str
    a: int
    b: int
    unit: FusedBlock | Checkpoint | None = None


def plan(net: Network, records: Sequence[EventRecord], watchdog: str = "off") -> list[Step]:
    """The steps ``run()`` takes on ``net`` now for these ``event_records``
    in this watchdog mode; no amplitude enters them.  Each event fires
    before gate ``position`` or where it slides to; strict checkpoints
    project after the events at their position.  A network whose
    ``net.masks`` are compiled is a rerun: it ran before (or went through
    ``apply_network_batch``) and, as a rule, will run again.  A first run
    builds no table: the gates between stops, events and strict
    checkpoints, are one ``"gates"`` step.  A rerun walks groups of
    14-wire blocks on at most 16 wires, built on the first rerun that
    walks them: ``net.groups``, or in strict mode ``net.checkpoint_groups``,
    also cut at every checkpoint position, as the blocks always are.  An
    event strictly inside a group or block first slides, in order, through
    the gates not touching its qubit (``_slide``), toward the nearer edge
    it can reach, the start on a tie: to the start, after the checkpoints
    there, or to the stop, before them; unless strict, also across
    checkpoints.  A group with no event left inside is one lookup, and one
    with an event inside walks its blocks (``parts``).  In a block with
    events inside, those bound for the start fire there, in order, each
    carried back through the gates between (each gate is its own inverse),
    then the table runs, then the rest fire at the stop, carried back from
    it; of the splits that keep the events' order, this one carries the
    fewest gates.  On a fresh network it reads neither ``net.masks`` nor
    ``net.touches``, so the network's next run stays its first."""
    strict = watchdog == "strict"
    rerun = "masks" in vars(net)  # as above
    units = (net.checkpoint_groups if strict else net.groups) if rerun else ()
    total, steps = len(net.gates), []
    positions = [rec.position for rec in records]  # where each event fires
    checkpoints = net.checkpoints if strict else ()  # in order, as the network checked
    ei = ci = 0

    def settle(g: int) -> None:
        """Fire the events, then project at the checkpoints, that sit before gate g."""
        nonlocal ei, ci
        while ei < len(records) and positions[ei] == g:
            steps.append(Step("fire", g, g))
            ei += 1
        while ci < len(checkpoints) and checkpoints[ci].position == g:
            steps.append(Step("project", g, g, checkpoints[ci]))
            ci += 1

    def walk(block: FusedBlock) -> None:
        """Gates block.start..block.stop-1 with the events among them."""
        nonlocal ei
        start, stop = block.start, block.stop
        settle(start)
        end = split = bisect.bisect_left(positions, stop, ei)
        if end > ei:
            positions[ei:end], k = _slide(positions[ei:end], records[ei:end],
                                          net.touches, start, stop)
            split = ei + k  # the events before it go to the start
            settle(start)  # the events slid to the start; its checkpoints have run
        if ei == end or positions[ei] == stop:  # no event left inside
            steps.append(Step("table", start, stop, block))
        elif block.parts:
            for part in block.parts:
                walk(part)
        else:
            inside = bisect.bisect_left(positions, stop, split, end)  # short of the stop
            steps.extend([*(Step("fire", start, pos) for pos in positions[ei:split]),
                          Step("table", start, stop, block),
                          *(Step("fire", stop, pos) for pos in positions[split:inside])])
            ei = inside

    for unit in units:
        walk(unit)
    a = total if rerun else 0  # a rerun's units ran every gate
    settle(a)
    while a < total:  # one kernel call between stops: events, strict checkpoints
        stop = min([total, *positions[ei:ei + 1],
                    *(chk.position for chk in checkpoints[ci:ci + 1])])
        steps.append(Step("gates", a, stop))
        settle(stop)
        a = stop
    return steps


def run(state: SparseState, net: Network, schedule: NoiseSchedule,
        watchdog: str = "off", *, verify_norm: bool = False) -> SparseState:
    """Evolve through the network with decay events interleaved, by the
    steps of ``plan(net, event_records(net, schedule, watchdog), watchdog)``.
    Each event fires with the p1 of its record.  ``watchdog='strict'``
    also projects each checkpoint's qubits onto 0 after the events there
    and renormalizes, discarding detected-error branches; a checkpoint that
    would keep no weight leaves the state unprojected.  A first run caches
    ``net.masks``; whatever the plan, the output is bit-identical.

    Each of these is a ``ValueError`` before any gate, every time: a network
    that does not compile (``compile_masks``; a gate on more than 16 wires
    too), over 63 events in the environment record, an event qubit outside
    the state, a network wider than the state.  A decay that would leave
    more than ``MAX_COMPONENTS`` components is a ``ComponentBudgetError``
    naming the event, before its split.  ``verify_norm`` checks the norm of
    the input state once the masks and any groups are built, and after
    every decay event; gates and lookups only permute basis strings."""
    records = event_records(net, schedule, watchdog)
    if state.env_count + len(records) > MAX_EVENTS:
        raise ValueError(f"{state.env_count} recorded plus {len(records)} new "
                         f"decay events exceed the limit of {MAX_EVENTS}")
    for rec in records:
        if rec.qubit >= state.qubit_count:
            raise ValueError(f"event qubit {rec.qubit} outside state width "
                             f"{state.qubit_count}")
    if net.qubit_count > state.qubit_count:
        raise ValueError(f"network of {net.qubit_count} qubits is wider than "
                         f"the state's {state.qubit_count}")
    steps = plan(net, records, watchdog)
    ctrl, tgt = net.masks
    if verify_norm:
        _check_norm(state.amp, "the input state")
    comp, env, amp = state.comp.astype(np.int64), state.env.copy(), state.amp.copy()  # copies
    fired = enumerate(records, state.env_count)  # each event's record bit
    for kind, a, b, unit in steps:
        if kind == "gates":
            apply_masks(comp, ctrl[a:b], tgt[a:b])
        elif kind == "table":
            unit.apply(comp)
        elif kind == "fire":
            bit, ev = next(fired)
            gates = ((ctrl[a:b], tgt[a:b]) if a < b else
                     (ctrl[b:a][::-1], tgt[b:a][::-1]) if a > b else ())
            comp, env, amp = _decay(comp, env, amp, bit, ev.qubit, ev.p1,
                                    f"decay event at t={ev.time} on qubit {ev.qubit}", gates)
            if verify_norm:
                _check_norm(amp, f"decay event at t={ev.time}")
        else:  # "project"
            keep = (comp & unit.mask) == 0
            weight = float(np.sum(np.abs(amp[keep]) ** 2))
            if weight > 0.0:
                comp, env, amp = comp[keep], env[keep], amp[keep] / math.sqrt(weight)
    return SparseState(state.qubit_count, state.env_count + len(records), comp, env, amp)


def _slide(positions: list[int], events: Sequence[EventRecord],
           touches: Sequence[Sequence[int]], start: int, stop: int,
           ) -> tuple[list[int], int]:
    """New positions for ``events`` at ``positions`` inside the block of gates
    start..stop-1, and the count k of the first of them that go to its
    start, the rest toward its stop.  ``touches`` holds, per qubit, the
    ascending indices of the gates touching it (``Network.touches``), none
    for a qubit past its end.  A decay commutes with the gates not touching
    its qubit, so an event may fire anywhere between the gates around it
    that touch its qubit, or the block's ends.  In order, event i can reach
    ``left[i]`` toward the start and ``right[i]`` toward the stop, and goes
    to the nearer edge, the start on a tie: iff ``left[i] - start <= stop -
    right[i]``.  As ``left[i] + right[i]`` never decreases, these are the
    first k, and no order-keeping split carries fewer gates to the edges."""
    low, high = [], []
    for pos, ev in zip(positions, events):
        touch = touches[ev.qubit] if ev.qubit < len(touches) else ()
        at = bisect.bisect_left(touch, pos)
        low.append(max(touch[at - 1] + 1, start) if at else start)
        high.append(min(touch[at], stop) if at < len(touch) else stop)
    left = list(itertools.accumulate(low, max))
    right = list(itertools.accumulate(high[::-1], min))[::-1]
    k = sum(a + b <= start + stop for a, b in zip(left, right))
    return left[:k] + right[k:], k


def _norm_squared(amp: np.ndarray) -> float:
    """The sum of |amp|^2 with no array the size of the state: the squared
    parts of ``TABLE_CHUNK`` amplitudes at a time are summed pairwise, and
    those sums added with ``math.fsum``.  Not ``np.vdot``, whose BLAS
    threads spin on after the call and take the transform worker's CPU, nor
    ``np.einsum``, whose running sum drifted 4.6e-14 from ``math.fsum`` on
    noisy N=15 run states (this pass: 2.2e-16)."""
    parts = np.ascontiguousarray(amp, dtype=np.complex128).view(np.float64)
    step = 2 * TABLE_CHUNK
    return math.fsum(np.square(parts[lo:lo + step]).sum()
                     for lo in range(0, len(parts), step))


def _check_norm(amp: np.ndarray, where: str) -> None:
    norm = _norm_squared(amp)
    if abs(norm - 1.0) > NORM_TOL:
        raise AssertionError(f"norm drifted to {norm} after {where}")


def _in_halves(count: int, elements: int, part: Callable[[int, int], None]) -> None:
    """``part(lo, hi)`` over 0..count, a pass over ``elements`` elements:
    from ``SPLIT_MIN`` of them, ``part(count // 2, count)`` on a worker
    thread and ``part(0, count // 2)`` here, both done before it returns or
    raises what either raised; else one inline call, and no thread.
    ``part`` writes only into arrays made before the call: a thread's freed
    temporaries stay resident in its malloc arena."""
    if elements < SPLIT_MIN:
        part(0, count)
        return
    mid = count // 2
    raised = []

    def upper() -> None:
        try:
            part(mid, count)
        except BaseException as exc:  # raised again in the calling thread
            raised.append(exc)
    worker = threading.Thread(target=upper)
    worker.start()
    try:
        part(0, mid)
    finally:
        worker.join()
    if raised:
        raise raised[0]


def _rows(state: SparseState, q: int, layout: RegisterLayout,
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the dense first-register matrix: components grouped by
    (rest, env), the rest of a basis string being all but its first register.

    Returns the rest and env of each row, ascending by (rest, env), and, for
    every component in row order, its row, first-register value a and
    amplitude, with -0.0 parts turned into 0.0, as summing into a zeroed
    matrix would.  An a >= q or a repeated (comp, env) key is a
    ``ValueError``.
    """
    r1_mask = np.int64(layout.reg1_mask())
    a = (state.comp & r1_mask) >> layout.reg1.start
    if np.any(a >= q):
        raise ValueError("component with first-register value >= q")
    rest = state.comp & ~r1_mask
    order = np.lexsort((a, state.env, rest))
    rest, env, a = rest[order], state.env[order], a[order]
    same = (rest[1:] == rest[:-1]) & (env[1:] == env[:-1])
    if np.any(same & (a[1:] == a[:-1])):
        raise ValueError("repeated (comp, env) key in the sparse state")
    new_row = np.ones(len(order), dtype=bool)
    new_row[1:] = ~same
    row = np.cumsum(new_row) - 1
    amp = state.amp[order]
    amp += 0.0
    return rest[new_row], env[new_row], row, a, amp


def _transform_rows(dense: np.ndarray, rows: slice, row: np.ndarray, a: np.ndarray,
                    amp: np.ndarray, q: int, inverse: bool) -> None:
    """Place each amplitude at (row, a) of the zeroed matrix ``dense``, all
    of them in its ``rows``, and transform those rows in place."""
    # Keys are unique, so a plain scatter places each amplitude.
    dense[row, a] = amp
    block = dense[rows]
    if inverse:
        np.fft.fft(block, axis=1, out=block)
        block /= math.sqrt(q)
    else:
        np.fft.ifft(block, axis=1, out=block)
        block *= math.sqrt(q)


def _grouped_transform(state: SparseState, q: int, layout: RegisterLayout,
                       inverse: bool) -> SparseState:
    q = _integer(q, "q")
    rest, env, row, a, amp = _rows(state, q, layout)
    rows = len(rest)
    dense = np.zeros((rows, q), dtype=np.complex128)
    comp = np.empty_like(rest, shape=(rows, q))
    envs = np.empty_like(env, shape=(rows, q))
    columns = np.arange(q, dtype=np.int64) << layout.reg1.start

    def part(lo: int, hi: int) -> None:
        first, last = np.searchsorted(row, (lo, hi))
        _transform_rows(dense, slice(lo, hi), row[first:last], a[first:last],
                        amp[first:last], q, inverse)
        np.bitwise_or(rest[lo:hi, None], columns, out=comp[lo:hi])
        envs[lo:hi] = env[lo:hi, None]
    _in_halves(rows, rows * q, part)
    return SparseState(state.qubit_count, state.env_count, comp.ravel(),
                       envs.ravel(), dense.ravel())


def fourier_first_register(state: SparseState, q: int,
                           layout: RegisterLayout) -> SparseState:
    """Size-q Fourier transform of the first register.

    For every fixed (rest-of-computer, environment) the amplitudes over a
    become (1/sqrt q) * sum_a exp(2 pi i a c / q) A(a).  All first-register
    values must be below q, and (comp, env) keys must be unique.  The
    components are sorted by (rest, env, a) with ``np.lexsort``; each
    (rest, env) group is one row of a dense matrix, transformed in place by
    one FFT per row, and rows come out in ascending (rest, env) order.
    From ``SPLIT_MIN`` (2^18) dense elements, rows x q, the upper half of
    the rows is done on a worker thread; rows are independent FFTs, so the
    bytes do not change.
    """
    return _grouped_transform(state, q, layout, inverse=False)


def inverse_fourier_first_register(state: SparseState, q: int,
                                   layout: RegisterLayout) -> SparseState:
    """Inverse of ``fourier_first_register``, under the same conditions."""
    return _grouped_transform(state, q, layout, inverse=True)


def _tables(state: SparseState, layout: RegisterLayout, q: int,
            ed: bool) -> np.ndarray:
    q = _integer(q, "q")
    width = 1 << len(layout.reg2)
    work = np.int64(layout.work_mask())
    table = np.zeros(q * width)
    size = min(len(state.comp), TABLE_CHUNK)
    cell = np.empty(size, dtype=np.int64)
    weights = np.empty(size)
    r2 = weights.view(np.int64)  # holds r2 until the weights overwrite it
    for lo in range(0, len(state.comp), TABLE_CHUNK):
        comp, amp = state.comp[lo:lo + TABLE_CHUNK], state.amp[lo:lo + TABLE_CHUNK]
        if ed:
            keep = np.bitwise_and(comp, work, out=cell[:len(comp)]) == 0
            comp, amp = comp[keep], amp[keep]
        c, r, w = cell[:len(comp)], r2[:len(comp)], weights[:len(comp)]
        np.right_shift(comp, layout.reg1.start, out=c)
        c &= (1 << len(layout.reg1)) - 1
        c *= width  # cell = r1 * width + r2
        np.right_shift(comp, layout.reg2.start, out=r)
        r &= width - 1
        c += r
        if len(c) and c.max() >= q * width:
            raise ValueError("component with first-register value >= q")
        np.abs(amp, out=w)
        np.square(w, out=w)
        # add.at adds element by element in index order, as bincount does.
        np.add.at(table, c, w)
    return table.reshape(q, width)


def distribution_ned(state: SparseState, layout: RegisterLayout,
                     q: int) -> Distribution:
    """P(r1, r2) with scratch wires and environment traced out: |amp|^2
    added by cell into one zeroed table with ``np.add.at``, ``TABLE_CHUNK``
    components at a time, in element order as ``np.bincount`` adds them.
    Each slice's cells are range-checked, then go with their weights into
    buffers of one slice kept across the slices (the norm pass keeps none),
    so no array the size of the state is made; all in the calling thread."""
    return Distribution(_tables(state, layout, q, False), "ned")


def distribution_ed(state: SparseState, layout: RegisterLayout,
                    q: int) -> Distribution:
    """Joint probability of (r1, r2) *and* all scratch wires reading 0.

    Not renormalized; pointwise it can only lose weight relative to the
    no-error-detection table.  The pass of ``distribution_ned``, with each
    slice first cut to its components whose scratch wires are clean; only
    those are range-checked.
    """
    return Distribution(_tables(state, layout, q, True), "ed")


def outcome_tables(state: SparseState, layout: RegisterLayout,
                   q: int) -> tuple[Distribution, Distribution]:
    """``distribution_ned`` and ``distribution_ed`` of the Fourier-transformed
    state, byte for byte, without building that state.

    Every row of the grouped transform (see ``fourier_first_register``) has
    one r2 value and one scratch flag, so column r2 of a table is the sum of
    |F(c)|^2 over its rows.  The rows are transformed ``TABLE_CHUNK`` dense
    elements at a time (at least one row), and each row is added into its r2
    accumulator in ascending row order, the order in which
    ``distribution_ned`` adds them; the ed table takes only the rows whose
    scratch wires are clean.  Raises what the transform raises.
    """
    q = _integer(q, "q")
    rest, _, row, a, amp = _rows(state, q, layout)
    width = 1 << len(layout.reg2)
    r2 = (rest >> layout.reg2.start) & (width - 1)
    clean = (rest & np.int64(layout.work_mask())) == 0
    ned = np.zeros(q * width)
    ed = np.zeros(q * width)
    step = max(1, TABLE_CHUNK // q)
    starts = np.searchsorted(row, np.arange(0, len(rest) + step, step))
    columns = np.arange(q) * width
    for first, lo, hi in zip(range(0, len(rest), step), starts, starts[1:]):
        block = slice(first, first + step)
        dense = np.zeros((len(r2[block]), q), dtype=np.complex128)
        _transform_rows(dense, slice(None), row[lo:hi] - first, a[lo:hi],
                        amp[lo:hi], q, False)
        weights = np.abs(dense)
        del dense  # freed before the cells and the ed copies are made
        weights *= weights
        cells = r2[block, None] + columns  # cell = c * width + r2
        # add.at adds element by element in index order, as bincount does.
        np.add.at(ned, cells.ravel(), weights.ravel())
        keep = clean[block]
        np.add.at(ed, cells[keep].ravel(), weights[keep].ravel())
    return (Distribution(ned.reshape(q, width), "ned"),
            Distribution(ed.reshape(q, width), "ed"))


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
