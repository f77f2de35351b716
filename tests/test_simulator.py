from __future__ import annotations

import hashlib
import math
import sys

import numpy as np
import pytest

from shorsim import (ArithParams, Gate, Network, RegisterLayout, apply_decay,
                     apply_network_batch, build_modexp, distribution_ed,
                     distribution_ned, dump_state, fourier_first_register, gates,
                     init_state, inverse_fourier_first_register,
                     network_from_text, run, sample_schedule, simulator)
from shorsim.gates import Checkpoint, compile_masks
from shorsim.oracles import exhaustive_network_check, modpow, outcome_table_oracle
from shorsim.simulator import (MAX_EVENTS, DecayEvent, EventRecord,
                               ExponentialDecay, NoiseSchedule, SparseState,
                               StaticDecay)

STATIC_HALF = StaticDecay(0.5)
GAMMA = ExponentialDecay(2.5)


def single_component(qubit_count, comp, env=0, env_count=0, amp=1.0):
    return SparseState(qubit_count, env_count,
                       np.array([comp], dtype=np.int64),
                       np.array([env], dtype=np.int64),
                       np.array([amp], dtype=np.complex128))


def fresh_copy(net):
    """An equal network with no cached compiled form."""
    return Network(net.gates, net.qubit_count, net.checkpoints)


class TestInitState:
    def test_uniform_superposition_at_q130(self):
        layout = RegisterLayout.for_factoring(4, q=130)
        state = init_state(130, layout)
        assert state.component_count == 130
        assert np.all(state.amp == 1.0 / math.sqrt(130))
        assert np.array_equal(np.sort(state.comp), np.arange(130))

    def test_two_values(self):
        layout = RegisterLayout.for_factoring(4, q=130)
        state = init_state(2, layout)
        assert state.component_count == 2
        assert np.allclose(state.amp, 1 / math.sqrt(2))

    def test_norm_is_one(self):
        layout = RegisterLayout.for_factoring(4, q=130)
        for q in (2, 17, 130, 256):
            assert init_state(q, layout).norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_q_beyond_register_capacity_rejected(self):
        layout = RegisterLayout.for_factoring(4, q=130)
        with pytest.raises(ValueError):
            init_state(257, layout)


class TestApplyDecay:
    def test_excited_qubit_splits_evenly(self):
        state = single_component(2, 0b01)
        out = apply_decay(state, 0, 0.5)
        assert out.component_count == 2
        assert out.env_count == 1
        got = out.as_dict()
        assert got[(0b01, 0)] == pytest.approx(1 / math.sqrt(2))
        assert got[(0b00, 1)] == pytest.approx(1 / math.sqrt(2))

    def test_ground_qubit_untouched(self):
        state = single_component(2, 0b10)
        out = apply_decay(state, 0, 0.3)
        assert out.component_count == 1
        assert out.as_dict() == {(0b10, 0): 1.0}
        assert out.env_count == 1

    def test_certain_persistence_only_widens_record(self):
        state = single_component(2, 0b01)
        out = apply_decay(state, 0, 1.0)
        assert out.component_count == 1
        assert out.as_dict() == {(0b01, 0): 1.0}
        assert out.env_count == 1

    def test_certain_decay_moves_all_weight(self):
        state = single_component(1, 0b1)
        out = apply_decay(state, 0, 0.0)
        assert out.as_dict() == {(0b0, 1): 1.0}

    def test_norm_preserved(self):
        state = single_component(3, 0b111, amp=1.0)
        out = apply_decay(apply_decay(state, 0, 0.3), 2, 0.8)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_full_environment_record_rejected(self):
        state = single_component(1, 0b1, env_count=MAX_EVENTS)
        with pytest.raises(ValueError, match="at most 63"):
            apply_decay(state, 0, 0.5)

    @pytest.mark.parametrize("p1", [1.5, -0.1, math.nan])
    def test_probability_outside_the_unit_interval_rejected(self, p1):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            apply_decay(single_component(1, 0b1), 0, p1)


class TestDecayLaws:
    @pytest.mark.parametrize("p1", [1.5, -0.1, math.nan])
    def test_static_law_needs_a_probability(self, p1):
        with pytest.raises(ValueError, match=r"p1=.* must lie in \[0, 1\]"):
            StaticDecay(p1)

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
    def test_exponential_law_needs_a_finite_rate(self, gamma):
        with pytest.raises(ValueError, match="gamma=.* must be finite and >= 0"):
            ExponentialDecay(gamma)

    def test_bounds_are_laws(self):
        assert StaticDecay(0.0).p1 == 0.0 and StaticDecay(1.0).p1 == 1.0
        assert ExponentialDecay(0.0).persist_probability(0.9, 0.0) == 1.0

    def test_run_checks_each_event_probability(self):
        # a law object that does not check itself still cannot split with
        # p1 > 1: run() and apply_decay share the check
        class Loose:
            def persist_probability(self, time, last_reset):
                return 1.5
        sched = NoiseSchedule([DecayEvent(0.5, 0)], Loose())
        with pytest.raises(ValueError, match=r"1.5 outside \[0, 1\]"):
            run(single_component(1, 0b1), Network([], 1), sched)


class TestRun:
    def test_ideal_run_reaches_the_exact_final_amplitudes(self, factoring_15):
        _, layout, net = factoring_15
        final = run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        assert final.component_count == 130
        expected = 1.0 / math.sqrt(130)
        for (comp, env), amp in final.as_dict().items():
            a = comp & 0xFF
            r2 = (comp >> layout.reg2.start) & 0xF
            work = comp >> layout.mult_work.start
            assert env == 0 and work == 0
            assert r2 == pow(7, a, 15)
            assert amp == expected

    def test_certain_persistence_matches_ideal_run(self, factoring_15):
        _, layout, net = factoring_15
        ideal = run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        sched = NoiseSchedule([DecayEvent(0.4, 3)], StaticDecay(1.0))
        noisy = run(init_state(130, layout), net, sched)
        assert noisy.env_count == 1
        assert np.all(noisy.env == 0)
        assert sorted(noisy.comp) == sorted(ideal.comp)
        assert noisy.as_dict() == {(c, 0): a
                                   for (c, _), a in ideal.as_dict().items()}

    def test_ten_events_bound_and_norm(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, 11, STATIC_HALF)
        final = run(init_state(130, layout), net, sched, verify_norm=True)
        assert final.component_count <= 130 * 2 ** 10
        assert final.norm_squared() == pytest.approx(1.0, abs=1e-10)
        assert final.env_count == 10

    def test_component_count_stays_q_until_first_event(self, factoring_15):
        _, layout, net = factoring_15
        final = run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        assert final.component_count == 130

    def test_event_log_reports_probabilities(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(5, layout.qubit_count, 2, ExponentialDecay(2.5))
        log = []
        run(init_state(130, layout), net, sched, event_log=log)
        assert len(log) == 5
        for record, event in zip(log, sched.events):
            assert record.time == event.time and record.qubit == event.qubit
            assert record.p1 == pytest.approx(math.exp(-2.5 * event.time))
            assert record.p2 == pytest.approx(1 - record.p1)


class TestRunBoundary:
    """Bad schedules fail at entry, before the network is even compiled."""

    def test_sixty_four_events_rejected_before_any_gate(self, factoring_15):
        _, layout, net = factoring_15
        fresh = fresh_copy(net)
        sched = NoiseSchedule([DecayEvent((i + 1) / 66, 0) for i in range(64)],
                              STATIC_HALF)
        with pytest.raises(ValueError, match="limit of 63"):
            run(init_state(130, layout), fresh, sched)
        assert "_compiled" not in fresh.__dict__

    def test_recorded_events_count_toward_the_limit(self):
        state = single_component(1, 0, env_count=60)
        sched = NoiseSchedule([DecayEvent(0.1 * (i + 1), 0) for i in range(4)],
                              STATIC_HALF)
        with pytest.raises(ValueError, match="60 recorded plus 4"):
            run(state, Network([Gate.of((), 0)], 1), sched)

    def test_sixty_three_events_fit(self):
        # the qubit stays in its ground state, so no event splits anything
        sched = NoiseSchedule([DecayEvent((i + 1) / 64, 0) for i in range(63)],
                              STATIC_HALF)
        out = run(single_component(1, 0), Network([], 1), sched)
        assert out.env_count == 63 and out.component_count == 1

    def test_event_qubit_outside_the_state_rejected(self, factoring_15):
        _, layout, net = factoring_15
        sched = NoiseSchedule([DecayEvent(0.2, 3), DecayEvent(0.5, 40)],
                              STATIC_HALF)
        with pytest.raises(ValueError, match="qubit 40 outside state width 26"):
            run(init_state(130, layout), net, sched)

    def test_network_wider_than_the_state_rejected_before_any_gate(self, gate_path):
        # gate 0 would set bit 5, outside a 5-qubit state
        net = Network([Gate.of((), 5)], 6)
        with pytest.raises(ValueError,
                           match="network of 6 qubits is wider than the state's 5"):
            run(single_component(5, 0), net, NoiseSchedule([], STATIC_HALF),
                verify_norm=True)
        assert gate_path == []

    def test_checkpoint_beyond_the_gates_rejected_in_strict_mode(self):
        # unchecked, the projection at position 7 would never happen and
        # the run would return comp [3] unprojected
        net = network_from_text("T 0\nT 1 0\nCHK 7 1\n")
        with pytest.raises(ValueError,
                           match="^checkpoint 0: position 7 outside 0..2$"):
            run(single_component(2, 0), net, NoiseSchedule([], STATIC_HALF),
                "strict")

    def test_checkpoint_qubit_below_zero_rejected(self):
        # unchecked, qubit -1 would index the clocks from the end and reset
        # qubit 1's clock; the index path refuses it, and run() refuses a
        # negative mask before any gate
        with pytest.raises(ValueError, match="^negative qubit index -1$"):
            Checkpoint.of(1, [-1])
        net = Network([Gate.of((), 1)], 2, [Checkpoint(1, -1)])
        with pytest.raises(ValueError, match="^checkpoint 0: negative mask$"):
            run(single_component(2, 0), net, NoiseSchedule([], GAMMA), "on")


class TestWatchdog:
    def test_decay_probability_never_larger_with_watchdog(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, 5, ExponentialDecay(2.5))
        logs = {}
        for mode in ("on", "off"):
            logs[mode] = []
            run(init_state(130, layout), net, sched, watchdog=mode,
                event_log=logs[mode])
        for rec_on, rec_off in zip(logs["on"], logs["off"]):
            assert rec_on.p2 <= rec_off.p2 + 1e-15
        assert any(rec_on.p2 < rec_off.p2
                   for rec_on, rec_off in zip(logs["on"], logs["off"]))

    def test_clock_origins_never_exceed_event_time(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, 8, ExponentialDecay(2.5))
        log = []
        run(init_state(130, layout), net, sched, watchdog="on", event_log=log)
        for rec in log:
            assert rec.clock_origin <= rec.time

    def test_register_clocks_never_reset(self, factoring_15):
        # Late events read each qubit's clock: the 12 register qubits still
        # count from the start, the scratch wire from its last checkpoint.
        _, layout, net = factoring_15
        scratch = layout.add_work.start
        qubits = [*layout.register_qubits, scratch]
        events = [DecayEvent(0.96 + 0.001 * i, qb) for i, qb in enumerate(qubits)]
        total = len(net.gates)
        last = max(chk.position for chk in net.checkpoints
                   if scratch in chk.qubits
                   and chk.position < math.ceil(events[-1].time * total))
        logs = {}
        for mode in ("off", "on"):
            logs[mode] = []
            run(init_state(130, layout), net, NoiseSchedule(events, GAMMA),
                watchdog=mode, event_log=logs[mode])
        assert [rec.clock_origin for rec in logs["on"]] == [0.0] * 12 + [last / total]
        assert last / total > 0.95
        assert [rec.clock_origin for rec in logs["off"]] == [0.0] * 13

    def test_strict_mode_keeps_only_clean_scratch(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, 5, STATIC_HALF)
        final = run(init_state(130, layout), net, sched, watchdog="strict")
        work = final.comp & np.int64(layout.work_mask())
        # every checkpoint projection happened before the end; final scratch
        # may only be dirty from decays after the last checkpoint, which
        # sits at the very end of the chain, so it must be clean here
        assert np.all(work == 0)
        assert final.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_unknown_mode_rejected(self, factoring_15):
        _, layout, net = factoring_15
        with pytest.raises(ValueError):
            run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF),
                watchdog="maybe")


def event_at(position, total, qubit):
    """An event that fires just before gate ``position``."""
    return DecayEvent((position - 0.5) / total, qubit)


def chunked_reference(state, net, sched, watchdog="off"):
    """run() rebuilt from apply_network_batch on the gates between stops and
    apply_decay at each event, sharing none of run()'s event placement,
    settling or clock handling.  At each event or checkpoint position the
    events fire first, each with p1 from the law and its qubit's clock;
    then each checkpoint resets its qubits' clocks ('on', 'strict') and,
    in 'strict', projects them onto 0 and renormalises.  Returns the final
    state and the event records, which carry each event's clock origin."""
    total = len(net.gates)
    clocks = np.zeros(state.qubit_count)
    log = []
    positions = [min(math.ceil(ev.time * total), total) for ev in sched.events]
    stops = sorted({*positions, *(chk.position for chk in net.checkpoints), total})
    done = 0
    for stop in stops:
        chunk = Network(net.gates[done:stop], net.qubit_count)
        state = SparseState(state.qubit_count, state.env_count,
                            apply_network_batch(state.comp, chunk),
                            state.env, state.amp)
        done = stop
        for ev, pos in zip(sched.events, positions):
            if pos == stop:
                origin = float(clocks[ev.qubit])
                p1 = sched.law.persist_probability(ev.time, origin)
                log.append(EventRecord(ev.time, ev.qubit, p1, 1.0 - p1, origin))
                state = apply_decay(state, ev.qubit, p1)
        for chk in net.checkpoints:
            if chk.position != stop or watchdog == "off":
                continue
            clocks[list(chk.qubits)] = stop / total
            if watchdog == "strict":
                keep = np.ones(state.component_count, dtype=bool)
                for qb in chk.qubits:
                    keep &= (state.comp >> qb) & 1 == 0
                weight = float(np.sum(np.abs(state.amp[keep]) ** 2))
                if weight > 0.0:
                    state = SparseState(state.qubit_count, state.env_count,
                                        state.comp[keep], state.env[keep],
                                        state.amp[keep] / math.sqrt(weight))
    return state, log


def assert_matches_reference(state, net, sched, watchdog="off", **kw):
    """run() equals the chunked reference: snapshot byte for byte, and the
    event records with their clock origins."""
    log = []
    out = run(state, net, sched, watchdog, event_log=log, **kw)
    got = (dump_state(out), log)
    want, want_log = chunked_reference(state, net, sched, watchdog)
    assert got == (dump_state(want), want_log)
    return got


@pytest.fixture
def gate_path(monkeypatch):
    """The path run() takes, in order: each call of the single-gate kernel
    as its list of (control, target) mask pairs, which compares equal to
    the list of its ``Gate``s, each table lookup as ("table", start, stop),
    and each norm check as its label.  The kernel and the lookups still
    run, and the norm checks still raise."""
    path = []
    kernel, lookup, check = (simulator.apply_masks, gates.FusedBlock.apply,
                             simulator._check_norm)

    def gates_run(comp, ctrl, tgt):
        path.append(list(zip(ctrl.tolist(), tgt.tolist())))
        kernel(comp, ctrl, tgt)

    def table_run(block, comp):
        path.append(("table", block.start, block.stop))
        lookup(block, comp)

    def norm_checked(amp, label):
        path.append(label)
        check(amp, label)

    monkeypatch.setattr(simulator, "apply_masks", gates_run)
    monkeypatch.setattr(gates.FusedBlock, "apply", table_run)
    monkeypatch.setattr(simulator, "_check_norm", norm_checked)
    return path


def random_gates(rng, width, count):
    gate_list = []
    for _ in range(count):
        wires = rng.choice(width, size=int(rng.integers(1, 4)), replace=False)
        gate_list.append(Gate.of(wires[1:].tolist(), int(wires[0])))
    return gate_list


def all_strings(width):
    """The uniform superposition of every basis string of ``width`` qubits."""
    values = np.arange(1 << width, dtype=np.int64)
    return SparseState(width, 0, values, np.zeros_like(values),
                       np.full(len(values), len(values) ** -0.5,
                               dtype=np.complex128))


class TestFusedPass:
    @pytest.mark.parametrize("watchdog, law, seed", [
        ("off", STATIC_HALF, 0), ("off", GAMMA, 1), ("on", GAMMA, 1),
        ("strict", STATIC_HALF, 2)])
    def test_matches_the_gate_by_gate_pass(self, factoring_15, watchdog, law,
                                           seed):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, seed, law)
        assert_matches_reference(init_state(130, layout), net, sched, watchdog,
                                 verify_norm=True)

    def test_blocks_cover_the_gates_and_cut_at_checkpoints(self, factoring_15):
        _, _, net = factoring_15
        blocks = net.compiled().blocks
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert blocks[0].start == 0 and blocks[-1].stop == len(net.gates)
        starts = {b.start for b in blocks}
        assert {c.position for c in net.checkpoints
                if c.position < len(net.gates)} <= starts
        for b in blocks:
            wires = 0
            for gate in net.gates[b.start:b.stop]:
                wires |= gate.control_mask | gate.target_mask
            assert wires.bit_count() <= gates.FUSE_WIRES
        assert len({id(b.table) for b in blocks}) < len(blocks)

    @pytest.mark.parametrize("watchdog, law", [
        ("off", STATIC_HALF), ("on", GAMMA), ("strict", GAMMA)])
    def test_events_on_block_boundaries_and_inside_one_block(self, factoring_15,
                                                             watchdog, law):
        _, layout, net = factoring_15
        blocks = net.compiled().blocks
        total = len(net.gates)
        mid = blocks[len(blocks) // 2]
        assert mid.stop - mid.start > 8
        positions = [1,  # inside the first block, just after gate 0
                     blocks[3].start, blocks[3].stop, blocks[40].start,
                     mid.start + 3, mid.start + 7,  # two inside one block
                     total]
        events = [event_at(p, total, qb) for p, qb in
                  zip(positions, [0, 13, 20, 5, 17, 18, 3])]
        assert [math.ceil(ev.time * total) for ev in events] == positions
        _, log = assert_matches_reference(init_state(130, layout), net,
                                             NoiseSchedule(events, law),
                                             watchdog, verify_norm=True)
        assert len(log) == len(events)

    def test_norm_checked_after_every_event_only(self, factoring_15, gate_path):
        _, layout, net = factoring_15
        blocks = net.compiled().blocks
        total = len(net.gates)
        inside = blocks[5]
        assert inside.stop - inside.start > 4
        sched = NoiseSchedule([event_at(blocks[2].start, total, 14),
                               event_at(inside.start + 2, total, 15)],
                              STATIC_HALF)
        run(init_state(130, layout), net, sched, verify_norm=True)
        tables = [("table", b.start, b.stop) for b in blocks]
        decays = [f"decay event at t={ev.time}" for ev in sched.events]
        prefix = list(net.gates[inside.start:inside.start + 2])
        # every other block is one lookup; the inner event runs from its
        # block's start: 2 gates forward, the 2 undone, then the table
        assert gate_path == ["the input state", *tables[:2], decays[0], *tables[2:5],
                             prefix, decays[1], prefix[::-1], *tables[5:]]

    def test_norm_drift_detected_on_both_paths(self, factoring_15, gate_path,
                                               monkeypatch):
        _, layout, net = factoring_15
        state = init_state(130, layout)
        split = simulator._split

        def drifting_split(*args):
            comp, env, amp = split(*args)
            return comp, env, amp * 2.0

        monkeypatch.setattr(simulator, "_split", drifting_split)
        first = net.compiled().blocks[0]
        assert first.stop > 3
        last = first.stop - 1
        # an event just after gate 0 runs the first block from its start,
        # one just before its last gate from its stop; either way the
        # check follows the event
        for position, before in (
                (1, [list(net.gates[:1])]),
                (last, [("table", 0, first.stop), list(net.gates[last:first.stop])])):
            gate_path.clear()
            event = event_at(position, len(net.gates), 0)
            where = f"decay event at t={event.time}"
            with pytest.raises(AssertionError,
                               match=f"norm drifted to .* after {where}$"):
                run(state, net, NoiseSchedule([event], STATIC_HALF),
                    verify_norm=True)
            assert gate_path == ["the input state", *before, where]

    @pytest.mark.parametrize("n_events", [0, 1])
    def test_input_norm_checked_before_any_gate(self, factoring_15, gate_path,
                                                n_events):
        _, layout, net = factoring_15
        state = init_state(130, layout)
        state.amp *= 2.0
        sched = sample_schedule(n_events, layout.qubit_count, 0, STATIC_HALF)
        with pytest.raises(AssertionError,
                           match="norm drifted to .* after the input state$"):
            run(state, net, sched, verify_norm=True)
        assert gate_path == ["the input state"]

    def test_first_run_builds_the_blocks(self, factoring_15):
        _, layout, net = factoring_15
        net = fresh_copy(net)
        run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        compiled = net.compiled()
        blocks = vars(compiled)["blocks"]
        assert len(blocks) > 1
        run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        assert net.compiled() is compiled and compiled.blocks is blocks

    def test_mask_callers_build_no_blocks(self, factoring_15, monkeypatch):
        _, layout, net = factoring_15
        net = fresh_copy(net)
        compile_masks(net)
        assert "_compiled" not in vars(net)
        calls = []
        monkeypatch.setattr(gates, "compile_masks",
                            lambda n: calls.append(n) or compile_masks(n))
        values = np.arange(130, dtype=np.int64) << layout.reg1.start
        first = apply_network_batch(values, net)
        assert np.array_equal(apply_network_batch(values, net), first)
        assert not exhaustive_network_check(
            net, lambda a: modpow(7, a, 15), range(130),
            in_wires=list(layout.reg1), out_wires=list(layout.reg2),
            zero_wires=layout.work_qubits)
        assert calls == [net]  # masks built and validated once, then cached
        assert "blocks" not in vars(net.compiled())

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("with_checkpoints", [False, True])
    def test_random_small_networks(self, seed, with_checkpoints, monkeypatch):
        monkeypatch.setattr(gates, "FUSE_WIRES", 4)  # several blocks per network
        rng = np.random.default_rng(seed)
        width = int(rng.integers(4, 11))
        gate_list = random_gates(rng, width, int(rng.integers(20, 60)))
        checkpoints = []
        if with_checkpoints:
            for pos in sorted(rng.choice(len(gate_list) + 1, size=4, replace=False)):
                qubits = rng.choice(width, size=2, replace=False).tolist()
                checkpoints.append(Checkpoint.of(pos, qubits))
        net = Network(gate_list, width, checkpoints)
        state = all_strings(width)
        out = run(state, net, NoiseSchedule([], StaticDecay(1.0)))
        assert len(net.compiled().blocks) > 1
        assert np.array_equal(out.comp, apply_network_batch(state.comp, net))
        sched = sample_schedule(3, width, seed, STATIC_HALF)
        for watchdog in ("off", "on", "strict"):
            assert_matches_reference(state, net, sched, watchdog)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_small_networks_run_blocks_from_either_end(self, seed,
                                                               monkeypatch):
        # Short blocks, so the prefix and suffix paths meet events close
        # to both ends and to each other.
        monkeypatch.setattr(gates, "FUSE_WIRES", 4)
        net = Network(random_gates(np.random.default_rng(100 + seed), 8, 80), 8,
                      [Checkpoint.of(40, [0, 1]), Checkpoint.of(60, [2])])
        sched = sample_schedule(8, 8, seed, GAMMA)
        for watchdog in ("off", "on", "strict"):
            assert_matches_reference(all_strings(8), net, sched, watchdog)

    @pytest.mark.parametrize("seed, width", [(0, 40), (1, 47), (2, 57), (3, 62)])
    def test_random_wide_networks(self, seed, width):
        # Each phase's gates stay on 12 random wires, so blocks fill up to
        # FUSE_WIRES with many gates and more than 8 targets; the wires
        # spread over every byte of the basis string.
        rng = np.random.default_rng(200 + seed)
        gate_list = []
        for _ in range(8):
            wires = rng.choice(width, size=12, replace=False)
            gate_list += [Gate.of(wires[pick[1:]].tolist(), int(wires[pick[0]]))
                          for pick in (rng.choice(12, size=int(rng.integers(1, 4)),
                                                  replace=False) for _ in range(40))]
        checkpoints = [Checkpoint.of(int(pos), [int(rng.integers(width))])
                       for pos in sorted(rng.choice(len(gate_list) + 1, 3,
                                                    replace=False))]
        net = Network(gate_list, width, checkpoints)
        values = np.unique(rng.integers(0, 1 << width, 400))
        state = SparseState(width, 0, values, np.zeros_like(values),
                            np.full(len(values), len(values) ** -0.5,
                                    dtype=np.complex128))
        sched = sample_schedule(4, width, seed, STATIC_HALF)
        for watchdog in ("off", "on", "strict"):
            assert_matches_reference(state, net, sched, watchdog)
        blocks = net.compiled().blocks
        assert len({byte for b in blocks for byte, _ in b.gather}) == (width + 7) // 8
        # some block flips more than 8 wires, so its deltas span many bytes
        assert max(int(np.bitwise_or.reduce(b.table)).bit_count()
                   for b in blocks) > 8


@pytest.fixture(scope="module", params=[(21, 2, 512), (33, 5, 1100)],
                ids=["n21", "n33"])
def wide_instance(request):
    """N=21 (30 qubits) and N=33 (35 qubits, 5 gather bytes) networks."""
    n, x, q = request.param
    layout = RegisterLayout.for_factoring(n.bit_length(), q=q)
    net = build_modexp(ArithParams.create(n, x, q), layout)
    return q, layout, net


def little_endian(tab):
    return tab.astype(tab.dtype.newbyteorder("<")).tobytes()


def block_digest(blocks):
    """SHA-256 of every block's start, stop, table and gather pairs, values
    and dtypes, in little-endian byte order."""
    h = hashlib.sha256()
    little = sys.byteorder == "little"
    for b in blocks:
        h.update(f"{b.start} {b.stop} {b.table.dtype.name}".encode())
        h.update(little_endian(b.table))
        for byte, tab in b.gather:
            h.update(f"gather {byte if little else 7 - byte} "
                     f"{tab.dtype.name}".encode())
            h.update(little_endian(tab))
    return h.hexdigest()


# The block digests of N=15 (x=7, q=130), N=21 (x=2, q=512) and N=33 (x=5,
# q=1100), re-pinned when each table came to hold the block's int64 delta on
# the whole basis string and local indices came to follow wire rank, with
# every table equal to its gates on all local inputs (the test below).
BLOCK_DIGESTS = {
    130: "e4d6b6d5a4803f89b5ff755a4348a865e38a7e34f2762dbba4d101bb2f8ee465",
    512: "37f7f8e257ec5df1d6cc8b9e169529243c002d96814d3f136f8aa7d5f3dffa5f",
    1100: "72dd4c3fb48519a02998eb02700ddf76a5d7e6d36e86aa8245744ee51700f247"}


class TestWideFusedPass:
    """The fused pass beyond N=15, on networks whose blocks gather from up
    to 5 bytes; the block property holds whatever way the blocks are built."""

    def test_blocks_are_pinned(self, factoring_15, wide_instance):
        for q, _, net in ((130, *factoring_15[1:]), wide_instance):
            assert block_digest(net.compiled().blocks) == BLOCK_DIGESTS[q]

    def test_every_table_equals_its_gates_on_all_local_inputs(self, factoring_15,
                                                              wide_instance):
        # Each distinct table on the wires of the first block using it:
        # local bit j is the block's j-th lowest wire.
        for net in (factoring_15[2], wide_instance[2]):
            seen = set()
            for b in net.compiled().blocks:
                if id(b.table) in seen:
                    continue
                seen.add(id(b.table))
                gate_list = net.gates[b.start:b.stop]
                wires = sorted({w for g in gate_list for w in (*g.controls, g.target)})
                local = np.arange(1 << len(wires))
                values = np.zeros_like(local)
                for j, w in enumerate(wires):
                    values |= (local >> j & 1) << w
                out = apply_network_batch(values, Network(gate_list, net.qubit_count))
                assert np.array_equal(out ^ values, b.table), (b.start, b.stop)

    def test_zero_event_run_matches_the_gate_by_gate_pass(self, wide_instance):
        q, layout, net = wide_instance
        rng = np.random.default_rng(q)
        values = np.concatenate([init_state(q, layout).comp,
                                 rng.integers(0, 1 << net.qubit_count, 1000)])
        state = SparseState(net.qubit_count, 0, values, np.zeros_like(values),
                            np.full(len(values), len(values) ** -0.5,
                                    dtype=np.complex128))
        out = run(state, net, NoiseSchedule([], StaticDecay(1.0)))
        assert np.array_equal(out.comp, apply_network_batch(values, net))

    @pytest.mark.parametrize("watchdog", ["on", "strict"])
    def test_events_match_the_gate_by_gate_pass(self, wide_instance, watchdog):
        q, layout, net = wide_instance
        sched = sample_schedule(10, layout.qubit_count, 3, GAMMA)
        assert_matches_reference(init_state(q, layout), net, sched, watchdog,
                                 verify_norm=True)

    def test_every_block_equals_its_gates(self, wide_instance):
        q, _, net = wide_instance
        width = net.qubit_count
        values = np.random.default_rng(q + 1).integers(0, 1 << width, 256)
        blocks = net.compiled().blocks
        assert len({byte for b in blocks for byte, _ in b.gather}) == (width + 7) // 8
        for b in blocks:
            comp = values.copy()
            b.apply(comp)
            want = apply_network_batch(values, Network(net.gates[b.start:b.stop], width))
            assert np.array_equal(comp, want), (b.start, b.stop)


class TestWideGates:
    """A gate's local bits must fit the uint16 gather entries, which index
    the table, of its fused block."""

    def test_gate_on_seventeen_wires_refused_before_any_gate(self, gate_path):
        net = Network([Gate.of([], 17), Gate.of(range(1, 17), 0)], 18)
        # The event between the two gates would run gate 0 through the kernel.
        sched = NoiseSchedule([event_at(1, 2, 17)], StaticDecay(1.0))
        with pytest.raises(ValueError, match="gate 1 touches 17 wires"):
            run(single_component(18, 131070), net, sched, verify_norm=True)
        assert gate_path == []
        with pytest.raises(ValueError, match="gate 1 touches 17 wires"):
            net.compiled().blocks

    def test_gate_on_seventeen_wires_kept_by_the_batch_kernel_and_oracles(self):
        net = Network([Gate.of(range(1, 17), 0), Gate.of([], 17)], 18)
        with pytest.raises(ValueError, match="gate 0 touches 17 wires"):
            run(single_component(18, 131070), net, NoiseSchedule([], StaticDecay(1.0)))
        assert apply_network_batch([131070], net).tolist() == [262143]
        assert not exhaustive_network_check(
            net, lambda a: int(a == 65535), range(1 << 16),
            in_wires=list(range(1, 17)), out_wires=[0])

    def test_gate_on_sixteen_wires_runs(self):
        net = Network([Gate.of(range(1, 16), 0), Gate.of([], 16)], 17)
        rng = np.random.default_rng(16)
        values = np.unique(np.concatenate([[0xFFFE, 0xFFFF, 0x1FFFE],
                                           rng.integers(0, 1 << 17, 500)]))
        state = SparseState(17, 0, values, np.zeros_like(values),
                            np.full(len(values), len(values) ** -0.5,
                                    dtype=np.complex128))
        out = run(state, net, NoiseSchedule([], StaticDecay(1.0)))
        assert [b.table.size for b in net.compiled().blocks] == [1 << 16, 2]
        assert np.array_equal(out.comp, apply_network_batch(values, net))


class TestEventBlocks:
    """A block with events inside runs from the end nearer to them: single
    gates through the kernel out to the events and back, and the block's
    table for the gates on the far side.  Both paths agree bit for bit
    with the chunked gate-by-gate reference."""

    @staticmethod
    def long_blocks(net):
        return [b for b in net.compiled().blocks if b.stop - b.start >= 20]

    def test_each_block_runs_from_its_nearer_end(self, factoring_15, gate_path):
        _, layout, net = factoring_15
        near_start, near_end, middle = self.long_blocks(net)[2:5]
        mid = (middle.start + middle.stop) // 2
        events = [event_at(p, len(net.gates), qb) for p, qb in
                  zip([near_start.start + 1, near_end.stop - 1, mid], [17, 13, 20])]
        assert_matches_reference(init_state(130, layout), net,
                                 NoiseSchedule(events, GAMMA), "on",
                                 verify_norm=True)
        decays = [f"decay event at t={ev.time}" for ev in events]
        free = [("table", b.start, b.stop) for b in net.compiled().blocks
                if b not in (near_start, near_end, middle)]
        first = list(net.gates[near_start.start:near_start.start + 1])
        last = list(net.gates[near_end.stop - 1:near_end.stop])
        halfway = list(net.gates[middle.start:mid])
        # the first event: one gate forward and back, then the table; the
        # second: the table, then one gate back and forward; the mid-block
        # event runs from its block's start
        assert [step for step in gate_path if step not in free] == [
            "the input state",
            first, decays[0], first, ("table", near_start.start, near_start.stop),
            ("table", near_end.start, near_end.stop), last, decays[1], last,
            halfway, decays[2], halfway[::-1], ("table", middle.start, middle.stop)]

    @pytest.mark.parametrize("watchdog, law", [
        ("off", STATIC_HALF), ("on", GAMMA), ("strict", GAMMA)])
    def test_several_events_per_block_and_in_adjacent_blocks(self, factoring_15,
                                                            watchdog, law):
        _, layout, net = factoring_15
        total = len(net.gates)
        first, second, third = self.long_blocks(net)[:3]
        blocks = net.compiled().blocks
        nxt = blocks[blocks.index(third) + 1]
        positions = [first.start + 1, first.start + 2, first.start + 4,
                     second.stop - 3, second.stop - 1,
                     second.stop + 1,  # also inside the block after it
                     (third.start + third.stop) // 2, third.stop - 1,
                     nxt.start + 1]
        events = [event_at(p, total, qb) for p, qb in
                  zip(positions, [13, 14, 15, 16, 17, 18, 19, 20, 21])]
        _, log = assert_matches_reference(init_state(130, layout), net,
                                             NoiseSchedule(events, law),
                                             watchdog, verify_norm=True)
        assert len(log) == len(events)

    @pytest.mark.parametrize("watchdog", ["on", "strict"])
    def test_events_fire_before_checkpoints_at_the_same_position(self,
                                                                 watchdog):
        # Gate 0 sets qubit 1; at position 1 an event on qubit 1 fires, then
        # the checkpoint on qubit 1: the event still counts from the start,
        # and 'strict' keeps only the decayed branch.  A second event on
        # qubit 1 after the last gate counts from the checkpoint's reset.
        net = Network([Gate.of((), 1), Gate.of((), 0)], 2, [Checkpoint.of(1, [1])])
        sched = NoiseSchedule([event_at(1, 2, 1), event_at(2, 2, 1)], GAMMA)
        log = []
        out = run(single_component(2, 0), net, sched, watchdog, event_log=log)
        p1, later = math.exp(-2.5 * 0.25), math.exp(-2.5 * (0.75 - 0.5))
        assert log == [EventRecord(0.25, 1, p1, 1.0 - p1, 0.0),
                       EventRecord(0.75, 1, later, 1.0 - later, 0.5)]
        if watchdog == "strict":
            assert out.as_dict() == {(0b01, 1): 1.0}
        else:
            assert out.as_dict() == pytest.approx(
                {(0b11, 0): math.sqrt(p1 * later),
                 (0b01, 0b10): math.sqrt(p1 * (1.0 - later)),
                 (0b01, 1): math.sqrt(1.0 - p1)})
        assert_matches_reference(single_component(2, 0), net, sched, watchdog)


class TestFourier:
    def small_layout(self):
        return RegisterLayout.for_factoring(2, q=8)

    def test_uniform_register_collapses_to_zero(self):
        layout = self.small_layout()
        state = init_state(8, layout)
        out = fourier_first_register(state, 8, layout)
        got = {key: amp for key, amp in out.as_dict().items()
               if abs(amp) > 1e-12}
        assert got == {(0, 0): pytest.approx(1.0)}

    def test_single_component_spreads_uniformly(self):
        layout = self.small_layout()
        state = single_component(layout.qubit_count, 0)
        out = fourier_first_register(state, 8, layout)
        assert out.component_count == 8
        assert np.allclose(np.abs(out.amp), 1 / math.sqrt(8))

    def test_round_trip_restores_random_sparse_states(self):
        layout = self.small_layout()
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = 12
            comp = rng.integers(0, 8, n) | (rng.integers(0, 4, n) << 3)
            env = rng.integers(0, 4, n)
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            amps = {}
            for c, e, a in zip(comp, env, raw):
                amps[(int(c), int(e))] = amps.get((int(c), int(e)), 0) + a
            norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
            amps = {k: a / norm for k, a in amps.items()}
            state = SparseState.from_dict(layout.qubit_count, 2, amps)
            back = inverse_fourier_first_register(
                fourier_first_register(state, 8, layout), 8, layout)
            rebuilt = back.as_dict()
            for key, amp in amps.items():
                assert rebuilt[key] == pytest.approx(amp, abs=1e-10)

    def test_norm_preserved(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(6, layout.qubit_count, 3, STATIC_HALF)
        state = run(init_state(130, layout), net, sched)
        out = fourier_first_register(state, 130, layout)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_repeated_key_rejected(self):
        layout = self.small_layout()
        state = SparseState(layout.qubit_count, 1,
                            np.array([3, 5, 3], dtype=np.int64),
                            np.array([1, 1, 1], dtype=np.int64),
                            np.full(3, 3 ** -0.5, dtype=np.complex128))
        for transform in (fourier_first_register, inverse_fourier_first_register):
            with pytest.raises(ValueError, match="repeated"):
                transform(state, 8, layout)
        state.env[2] = 0  # the same basis string under another record is fine
        fourier_first_register(state, 8, layout)

    def test_register_value_beyond_q_rejected(self):
        layout = self.small_layout()
        state = single_component(layout.qubit_count, 7)
        with pytest.raises(ValueError):
            fourier_first_register(state, 4, layout)


class TestDistributions:
    def test_ideal_run_matches_the_analytic_oracle(self, factoring_15):
        _, layout, net = factoring_15
        state = run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        state = fourier_first_register(state, 130, layout)
        ned = distribution_ned(state, layout, 130)
        oracle = outcome_table_oracle(15, 7, 130)
        assert np.max(np.abs(ned.table - oracle)) <= 1e-10
        assert ned.total() == pytest.approx(1.0, abs=1e-10)

    def test_ideal_post_selection_changes_nothing(self, factoring_15):
        _, layout, net = factoring_15
        state = run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        state = fourier_first_register(state, 130, layout)
        ned = distribution_ned(state, layout, 130)
        ed = distribution_ed(state, layout, 130)
        assert np.array_equal(ned.table, ed.table)

    def test_noisy_post_selection_only_loses_weight(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, 21, STATIC_HALF)
        state = run(init_state(130, layout), net, sched)
        state = fourier_first_register(state, 130, layout)
        ned = distribution_ned(state, layout, 130)
        ed = distribution_ed(state, layout, 130)
        assert np.all(ed.table <= ned.table + 1e-15)
        assert np.all(ed.table >= 0) and np.all(ned.table >= 0)
        assert ed.total() < ned.total()



def reference_transform(state, q, layout, inverse):
    """The grouped DFT built on np.unique and np.add.at."""
    shift = layout.reg1.start
    r1_mask = np.int64(layout.reg1_mask())
    a = (state.comp & r1_mask) >> shift
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


def reference_table(state, layout, q, select):
    """The outcome table built on np.add.at."""
    r1 = (state.comp >> layout.reg1.start) & ((1 << len(layout.reg1)) - 1)
    r2 = (state.comp >> layout.reg2.start) & ((1 << len(layout.reg2)) - 1)
    weights = np.abs(state.amp) ** 2
    if select is not None:
        r1, r2, weights = r1[select], r2[select], weights[select]
    table = np.zeros((q, 1 << len(layout.reg2)))
    np.add.at(table, (r1, r2), weights)
    return table


def assert_same_bytes(got, want):
    for name in ("comp", "env", "amp"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_kernels_match_reference(state, layout, q):
    """Forward and inverse DFT state arrays and both tables, byte for byte."""
    forward = fourier_first_register(state, q, layout)
    assert_same_bytes(forward, reference_transform(state, q, layout, False))
    assert_same_bytes(inverse_fourier_first_register(forward, q, layout),
                      reference_transform(forward, q, layout, True))
    keep = (forward.comp & np.int64(layout.work_mask())) == 0
    for table, select in ((distribution_ned(forward, layout, q).table, None),
                          (distribution_ed(forward, layout, q).table, keep)):
        want = reference_table(forward, layout, q, select)
        assert table.dtype == want.dtype and table.shape == want.shape
        assert table.tobytes() == want.tobytes()


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("watchdog", ["off", "on", "strict"])
    @pytest.mark.parametrize("n_events", [0, 10, 20])
    def test_noisy_runs(self, factoring_15, watchdog, n_events):
        _, layout, net = factoring_15
        sched = sample_schedule(n_events, layout.qubit_count, 39 + n_events,
                                STATIC_HALF if n_events == 20 else GAMMA)
        state = run(init_state(130, layout), net, sched, watchdog)
        assert_kernels_match_reference(state, layout, 130)

    def test_selection_that_keeps_nothing(self, factoring_15):
        _, layout, net = factoring_15
        state = run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        state.comp |= np.int64(1 << layout.add_work.start)
        forward = fourier_first_register(state, 130, layout)
        assert not distribution_ed(forward, layout, 130).table.any()
        assert_kernels_match_reference(state, layout, 130)

    @pytest.mark.parametrize("q", [5, 8])
    def test_random_sparse_states(self, q):
        layout = RegisterLayout.for_factoring(2, q=8)
        rng = np.random.default_rng(q)
        amps = {}
        for _ in range(40):
            key = (int(rng.integers(0, q) | (rng.integers(0, 1 << 8) << 3)),
                   int(rng.integers(0, 8)))
            amps[key] = complex(rng.normal(), rng.normal())
        for a in range(q):  # a group of signed zeros keeps its sign bits
            amps[(a | 7 << 3, 2)] = complex(-0.0, -0.0)
        state = SparseState.from_dict(layout.qubit_count, 3, amps)
        assert_kernels_match_reference(state, layout, q)

    def test_empty_state(self):
        layout = RegisterLayout.for_factoring(2, q=8)
        empty = np.zeros(0, dtype=np.int64)
        state = SparseState(layout.qubit_count, 0, empty, empty.copy(),
                            np.zeros(0, dtype=np.complex128))
        assert_kernels_match_reference(state, layout, 8)

class TestSampleSchedule:
    def test_empty(self):
        sched = sample_schedule(0, 26, 1, STATIC_HALF)
        assert sched.events == ()

    def test_deterministic_for_a_seed(self):
        a = sample_schedule(10, 28, 123, STATIC_HALF)
        b = sample_schedule(10, 28, 123, STATIC_HALF)
        assert a.events == b.events

    def test_ten_events_on_twenty_eight_qubits(self):
        sched = sample_schedule(10, 28, 7, STATIC_HALF)
        times = [ev.time for ev in sched.events]
        assert len(times) == 10
        assert all(0 < t < 1 for t in times)
        assert times == sorted(times) and len(set(times)) == 10
        assert all(0 <= ev.qubit < 28 for ev in sched.events)

    def test_schedule_invariants_enforced(self):
        with pytest.raises(ValueError):
            NoiseSchedule([DecayEvent(0.5, 0), DecayEvent(0.4, 1)], STATIC_HALF)
        with pytest.raises(ValueError):
            NoiseSchedule([DecayEvent(1.0, 0)], STATIC_HALF)


class TestSnapshot:
    def test_exact_format(self):
        state = SparseState(3, 2,
                            np.array([0b101, 0b001], dtype=np.int64),
                            np.array([0b10, 0b01], dtype=np.int64),
                            np.array([0.5, -0.5j], dtype=np.complex128))
        assert dump_state(state) == ("001 01 0 -0.5\n"
                                     "101 10 0.5 0\n")

    def test_no_events_marker(self):
        state = single_component(2, 0b10)
        assert dump_state(state) == "10 - 1 0\n"
