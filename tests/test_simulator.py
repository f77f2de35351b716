from __future__ import annotations

import hashlib
import math
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from shorsim import (ArithParams, Network, RegisterLayout, apply_decay, apply_network,
                     apply_network_batch, build_modexp, distribution_ed,
                     distribution_ned, dump_state, event_records,
                     fourier_first_register, gates, init_state,
                     inverse_fourier_first_register, network_from_text,
                     outcome_tables, run, sample_schedule, simulator,
                     validate_network)
from shorsim.gates import MAX_WIDTH, Checkpoint, compile_masks, gate_masks, mask_bits
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
    """An equal network with no cached masks or groups: its first run runs
    on bit planes and builds no table, and only a later run walks its
    groups."""
    return Network(net.gates, net.qubit_count, net.checkpoints)


def ran_before(net):
    """An equal network with its masks compiled, as after a first run, so
    that each of its runs walks its groups."""
    net = fresh_copy(net)
    net.masks
    return net


def blocks_of(net):
    """The network's 14-wire blocks, which its groups tile as their parts."""
    return [p for g in net.groups for p in g.parts or (g,)]


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

    @pytest.mark.parametrize("qubit", [1.5, 1.0, "1", None])
    def test_non_integer_qubit_refused(self, qubit):
        # unchecked, 1.5 passed the width check and died in 1 << qubit
        with pytest.raises(ValueError, match=re.escape(
                f"qubit={qubit!r} must be an integer")):
            apply_decay(single_component(2, 0b11), qubit, 0.5)

    def test_numpy_integer_qubit_gives_the_same_bytes(self):
        state = all_strings(3)
        for qubit in (np.int64(1), np.uint8(1)):
            got, want = apply_decay(state, qubit, 0.3), apply_decay(state, 1, 0.3)
            for a, b in ((got.comp, want.comp), (got.env, want.env), (got.amp, want.amp)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDecayLaws:
    @pytest.mark.parametrize("p1", [1.5, -0.1, math.nan])
    def test_static_law_needs_a_probability(self, p1):
        with pytest.raises(ValueError, match=r"p1=.* must lie in \[0, 1\]"):
            StaticDecay(p1)

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
    def test_exponential_law_needs_a_finite_rate(self, gamma):
        with pytest.raises(ValueError, match="gamma=.* must be finite and >= 0"):
            ExponentialDecay(gamma)

    @pytest.mark.parametrize("p1", [None, "0.5", 1 + 0j])
    def test_static_law_needs_a_number(self, p1):
        # unchecked, the range check raised a raw TypeError
        with pytest.raises(ValueError, match=re.escape(
                f"persistence probability p1={p1!r} must be a real number")):
            StaticDecay(p1)

    @pytest.mark.parametrize("gamma", [None, "0.5", 1 + 0j])
    def test_exponential_law_needs_a_number(self, gamma):
        with pytest.raises(ValueError, match=re.escape(
                f"decay rate gamma={gamma!r} must be a real number")):
            ExponentialDecay(gamma)

    def test_numpy_floats_are_numbers(self):
        assert StaticDecay(np.float32(0.5)).p1 == 0.5
        assert ExponentialDecay(np.float32(2.5)).persist_probability(0.0, 0.0) == 1.0

    def test_bounds_are_laws(self):
        assert StaticDecay(0.0).p1 == 0.0 and StaticDecay(1.0).p1 == 1.0
        assert ExponentialDecay(0.0).persist_probability(0.9, 0.0) == 1.0

    @pytest.mark.parametrize("law", [None, "x", SimpleNamespace(persist_probability=0.5)],
                             ids=["None", "str", "not-callable"])
    def test_schedule_law_without_a_persistence_probability_refused(self, law):
        # unchecked, event_records died with an AttributeError on law=None
        message = f"law={law!r} has no callable persist_probability"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NoiseSchedule([DecayEvent(0.5, 0)], law)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NoiseSchedule([], law)

    @pytest.mark.parametrize("law", [StaticDecay, ExponentialDecay])
    def test_schedule_law_class_refused(self, law):
        # unchecked, the unbound persist_probability passed as callable, and
        # event_records died with a TypeError for its missing argument
        message = f"law={law!r} is a class, not a law"
        for events in ([DecayEvent(0.5, 0)], []):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                NoiseSchedule(events, law)

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
        log = event_records(net, sched)
        assert len(log) == 5
        for record, event in zip(log, sched.events):
            assert record.time == event.time and record.qubit == event.qubit
            assert record.p1 == pytest.approx(math.exp(-2.5 * event.time))
            assert record.p2 == pytest.approx(1 - record.p1)

    def test_event_records_leave_the_next_run_a_first_run(self, factoring_15):
        _, layout, net = factoring_15
        net = fresh_copy(net)
        sched = sample_schedule(10, layout.qubit_count, 5, GAMMA)
        for mode in ("off", "on", "strict"):
            assert all(kind != "table" for kind, _, _ in planned(net, sched, mode))  # no lookup
        assert not {"masks", "touches"} & vars(net).keys()
        run(init_state(130, layout), net, sched, "on")
        assert "masks" in vars(net) and "groups" not in vars(net)


class TestRunBoundary:
    """Bad states and schedules fail at entry, before the network's masks are
    even built; a state past the component budget fails at the event that
    would make it."""

    def test_sixty_four_events_rejected_before_any_gate(self, factoring_15):
        _, layout, net = factoring_15
        fresh = fresh_copy(net)
        sched = NoiseSchedule([DecayEvent((i + 1) / 66, 0) for i in range(64)],
                              STATIC_HALF)
        with pytest.raises(ValueError, match="limit of 63"):
            run(init_state(130, layout), fresh, sched)
        assert "masks" not in vars(fresh) and "groups" not in vars(fresh)

    def test_recorded_events_count_toward_the_limit(self):
        state = single_component(1, 0, env_count=60)
        sched = NoiseSchedule([DecayEvent(0.1 * (i + 1), 0) for i in range(4)],
                              STATIC_HALF)
        with pytest.raises(ValueError, match="60 recorded plus 4"):
            run(state, Network([gate_masks((), 0)], 1), sched)

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
        net = Network([gate_masks((), 5)], 6)
        with pytest.raises(ValueError,
                           match="network of 6 qubits is wider than the state's 5"):
            run(single_component(5, 0), net, NoiseSchedule([], STATIC_HALF),
                verify_norm=True)
        assert gate_path == []

    @pytest.mark.parametrize("width", [-1, MAX_WIDTH + 1, 70])
    def test_state_width_outside_a_mask_refused_when_made(self, width):
        # unchecked, a 70-qubit state took an event on qubit 65, and both
        # run() and apply_decay overflowed int64 inside the split
        with pytest.raises(ValueError, match=f"^state width {width} outside 0..62$"):
            single_component(width, 0)

    @pytest.mark.parametrize("env_count", [-1, MAX_EVENTS + 1])
    def test_env_count_outside_the_record_refused_when_made(self, env_count):
        # unchecked, apply_decay on env_count=-1 died with "negative shift
        # count" inside the split
        with pytest.raises(ValueError, match=f"^env_count={env_count} outside 0..63$"):
            single_component(2, 0, env_count=env_count)

    @pytest.mark.parametrize("shapes", [((3,), (3,), (2,)), ((3,), (4,), (3,)),
                                        ((2, 3), (2, 3), (2, 3)), ((), (), ())])
    def test_arrays_not_1d_of_one_length_refused_when_made(self, shapes):
        # unchecked, amp one entry short passed, and run() died after the
        # gates inside the split with "boolean index did not match"
        comp, env, amp = (np.zeros(shape, dtype=dtype) for shape, dtype in
                          zip(shapes, (np.int64, np.int64, np.complex128)))
        with pytest.raises(ValueError, match="^" + re.escape(
                "comp, env and amp must be 1-D arrays of one length, not of "
                "shapes {}, {} and {}".format(*shapes)) + "$"):
            SparseState(2, 0, comp, env, amp)

    @pytest.mark.parametrize("field, dtype", [("comp", np.float64), ("env", np.float64),
                                              ("comp", np.bool_), ("env", np.complex128)])
    def test_strings_and_records_not_integers_refused_when_made(self, field, dtype):
        # unchecked, a float64 env passed, and run() with one event died
        # inside the split with "ufunc 'bitwise_or' not supported"; a float
        # comp was cast silently
        arrays = {"comp": np.zeros(2, dtype=np.int64), "env": np.zeros(2, dtype=np.int64)}
        arrays[field] = arrays[field].astype(dtype)
        with pytest.raises(ValueError, match=f"^{field} must hold integers, not "
                                             f"{np.dtype(dtype)}$"):
            SparseState(2, 0, arrays["comp"], arrays["env"],
                        np.full(2, 0.5 ** 0.5, dtype=np.complex128))

    @pytest.mark.parametrize("value", [8, -1, 4])
    def test_strings_outside_the_width_refused_when_made(self, value):
        # unchecked, dump_state printed 1000 and -1 for a 2-qubit state, and
        # apply_decay split the string -1 into -1 and -3
        with pytest.raises(ValueError, match="^" + re.escape(
                "comp must hold basis strings in 0..2**2 - 1") + "$"):
            SparseState(2, 0, np.array([0, value]), np.zeros(2, dtype=np.int64),
                        np.full(2, 0.5 ** 0.5, dtype=np.complex128))
        widest = np.array([0, (1 << MAX_WIDTH) - 1])
        assert SparseState(MAX_WIDTH, 0, widest, np.zeros(2, dtype=np.int64),
                           np.full(2, 0.5 ** 0.5, dtype=np.complex128)).component_count == 2

    def test_any_integer_strings_and_records_accepted(self):
        state = SparseState(2, 1, np.array([0, 3], dtype=np.uint8),
                            np.array([0, 1], dtype=np.int32),
                            np.full(2, 0.5 ** 0.5, dtype=np.complex128))
        net = Network([gate_masks([0], 1)], 2)
        out = run(state, net, NoiseSchedule([DecayEvent(0.5, 0)], STATIC_HALF))
        assert sorted(out.as_dict()) == [(0, 0), (0, 3), (1, 1)]

    def test_widest_state_decays_on_its_top_qubit(self):
        state = single_component(MAX_WIDTH, 1 << 61)
        net = Network([gate_masks([61], 0)], MAX_WIDTH)
        out = run(state, net, NoiseSchedule([DecayEvent(0.5, 61)], STATIC_HALF))
        assert sorted(out.as_dict()) == [(1, 1), (1 << 61 | 1, 0)]
        assert sorted(apply_decay(state, 61, 0.5).as_dict()) == [(0, 1), (1 << 61, 0)]

    def test_component_budget_refused_before_the_split(self, monkeypatch, gate_path):
        # Of 16 strings the event on qubit 0 hits 8: p1=0.5 leaves 24
        # components, p1 = 0 or 1 leaves 16.
        monkeypatch.setattr(simulator, "MAX_COMPONENTS", 23)
        net = Network([gate_masks((), 1), gate_masks((), 2)], 4)
        event = event_at(1, 2, 0)
        with pytest.raises(simulator.ComponentBudgetError, match="^" + re.escape(
                f"decay event at t={event.time} on qubit 0 would leave 24 "
                "components, past the budget of 23") + "$"):
            run(all_strings(4), net, NoiseSchedule([event], STATIC_HALF),
                verify_norm=True)
        # a first run: gate 0 runs up to the event, and nothing after it
        assert gate_path == ["the input state", list(net.gates[:1])]
        with pytest.raises(simulator.ComponentBudgetError,
                           match="^decay on qubit 0 would leave 24 components, "
                                 "past the budget of 23$"):
            apply_decay(all_strings(4), 0, 0.5)
        for p1 in (0.0, 1.0):
            out = run(all_strings(4), net, NoiseSchedule([event], StaticDecay(p1)))
            assert out.component_count == 16
        monkeypatch.setattr(simulator, "MAX_COMPONENTS", 24)
        out = run(all_strings(4), net, NoiseSchedule([event], STATIC_HALF))
        assert out.component_count == 24
        # A rerun with the event pinned inside its one block, between two
        # gates on its qubit: it fires at the block's start, carried back
        # through gate 0, and is refused from the hit plane's count, before
        # the hit mask or any decayed string is made (no plane is written).
        monkeypatch.setattr(simulator, "MAX_COMPONENTS", 23)
        pinned = ran_before(Network([gate_masks((), 0), gate_masks([1], 0)], 4))
        assert [(g.start, g.stop, g.parts) for g in pinned.groups] == [(0, 2, ())]
        writes, write = [], gates._xor_planes
        monkeypatch.setattr(gates, "_xor_planes",
                            lambda *args: writes.append(1) or write(*args))
        gate_path.clear()
        with pytest.raises(simulator.ComponentBudgetError, match="^" + re.escape(
                f"decay event at t={event.time} on qubit 0 would leave 24 "
                "components, past the budget of 23") + "$"):
            run(all_strings(4), pinned, NoiseSchedule([event], STATIC_HALF),
                verify_norm=True)
        assert gate_path == ["the input state", ("fire", pinned.gates[:1])]
        assert writes == []
        for p1 in (0.0, 1.0):
            out = run(all_strings(4), pinned, NoiseSchedule([event], StaticDecay(p1)))
            assert out.component_count == 16
        monkeypatch.setattr(simulator, "MAX_COMPONENTS", 24)
        assert_matches_reference(all_strings(4), pinned, NoiseSchedule([event], STATIC_HALF))
        assert writes

    # A network checks its checkpoints when made, so neither run() nor
    # event_records ever sees one of these.

    def test_checkpoint_beyond_the_gates_rejected_in_strict_mode(self):
        # unchecked, the projection at position 7 would never happen and
        # the run would return comp [3] unprojected
        with pytest.raises(ValueError, match="^checkpoint 0: position 7 outside 0..2$"):
            network_from_text("T 0\nT 1 0\nCHK 7 1\n")

    def test_checkpoint_before_a_gate_free_network_rejected(self):
        # unchecked, event_records' clock origin -1 / 0 was a ZeroDivisionError
        with pytest.raises(ValueError, match="^checkpoint 0: position -1 outside 0..0$"):
            Network([], 1, [Checkpoint(-1, 1)])

    @pytest.mark.parametrize("watchdog", ["off", "on", "strict"])
    def test_event_records_refuse_the_checkpoints_run_refuses(self, watchdog):
        # unchecked, event_records gave the event at t=0.6 the clock origin
        # 0.25 of the out-of-order checkpoint that run() refuses
        checkpoints = [Checkpoint(3, 1), Checkpoint(1, 1)]
        with pytest.raises(ValueError, match="^checkpoint 1: position 1 outside 3..4$"):
            Network([gate_masks((), 0)] * 4, 1, checkpoints)
        net = Network([gate_masks((), 0)] * 4, 1, checkpoints[::-1])
        sched = NoiseSchedule([DecayEvent(0.6, 0)], GAMMA)
        [record] = event_records(net, sched, watchdog)
        assert record.clock_origin == (0.0 if watchdog == "off" else 0.25)
        assert "masks" not in vars(net)

    def test_checkpoint_qubit_below_zero_rejected(self):
        # unchecked, qubit -1 would index the clocks from the end and reset
        # qubit 1's clock; the index path refuses it, and a network refuses
        # a negative mask
        with pytest.raises(ValueError, match="^negative qubit index -1$"):
            Checkpoint.of(1, [-1])
        with pytest.raises(ValueError, match="^checkpoint 0: negative mask$"):
            Network([gate_masks((), 1)], 2, [Checkpoint(1, -1)])


class TestWatchdog:
    def test_decay_probability_never_larger_with_watchdog(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, 5, ExponentialDecay(2.5))
        logs = {mode: event_records(net, sched, mode) for mode in ("on", "off")}
        for rec_on, rec_off in zip(logs["on"], logs["off"]):
            assert rec_on.p2 <= rec_off.p2 + 1e-15
        assert any(rec_on.p2 < rec_off.p2
                   for rec_on, rec_off in zip(logs["on"], logs["off"]))

    def test_clock_origins_never_exceed_event_time(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, 8, ExponentialDecay(2.5))
        for rec in event_records(net, sched, "on"):
            assert rec.clock_origin <= rec.time

    def test_register_clocks_never_reset(self, factoring_15):
        # Late events read each qubit's clock: the 12 register qubits still
        # count from the start, the scratch wire from its last checkpoint.
        _, layout, net = factoring_15
        scratch = layout.add_work.start
        qubits = [*layout.reg1, *layout.reg2, scratch]
        events = [DecayEvent(0.96 + 0.001 * i, qb) for i, qb in enumerate(qubits)]
        total = len(net.gates)
        last = max(chk.position for chk in net.checkpoints
                   if scratch in chk.qubits
                   and chk.position < math.ceil(events[-1].time * total))
        logs = {mode: event_records(net, NoiseSchedule(events, GAMMA), mode)
                for mode in ("off", "on")}
        assert [rec.clock_origin for rec in logs["on"]] == [0.0] * 12 + [last / total]
        assert last / total > 0.95
        assert [rec.clock_origin for rec in logs["off"]] == [0.0] * 13

    @pytest.mark.parametrize("watchdog", ["on", "strict"])
    def test_gate_free_network_counts_from_zero(self, watchdog):
        # every position is 0, and no checkpoint lies strictly before an
        # event there, so the clock origin is 0.0; a first run and a rerun
        # both fire the event with that p1, then project in strict mode
        net = Network([], 1, [Checkpoint.of(0, [0])])
        p1 = math.exp(-2.5 * 0.5)
        sched = NoiseSchedule([DecayEvent(0.5, 0)], GAMMA)
        assert event_records(net, sched, watchdog) == [
            EventRecord(0.5, 0, 0, p1, 1.0 - p1, 0.0)]
        for _ in range(2):
            out = run(single_component(1, 0b1), net, sched, watchdog)
            assert out.as_dict() == pytest.approx(
                {(0b0, 1): 1.0} if watchdog == "strict"
                else {(0b1, 0): math.sqrt(p1), (0b0, 1): math.sqrt(1.0 - p1)})
        assert "masks" in vars(net)

    def test_strict_checkpoint_keeping_no_weight_leaves_the_state_unprojected(self):
        # Gate 0 sets qubit 0 in the only component, so the checkpoint on
        # qubit 0 at 1 keeps no weight: a strict first run and a rerun both
        # plan its projection, and leave the state as the gates made it.
        net = Network([gate_masks((), 0), gate_masks([0], 1)], 2, [Checkpoint.of(1, [0])])
        sched = NoiseSchedule([], STATIC_HALF)
        for _ in range(2):
            assert ("project", 1, 1) in planned(net, sched, "strict")
            out = run(single_component(2, 0b00), net, sched, "strict")
            assert out.as_dict() == {(0b11, 0): 1.0}
        assert "checkpoint_groups" in vars(net)

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


def reference_decay(state, qubit, p1):
    """The decay split in plain numpy, sharing no code with run()'s: every
    component, the hit ones weighted sqrt(p1) (dropped if p1 is 0), then
    unless p1 is 1 each hit one with its qubit cleared and the new record
    bit set, weighted sqrt(1 - p1); the float operations of run()'s split,
    in its order."""
    bit = np.int64(1 << qubit)
    hit = (state.comp & bit) != 0
    amp = state.amp.copy()
    amp[hit] *= math.sqrt(p1)
    keep = ~hit if p1 == 0.0 else np.ones(len(hit), dtype=bool)
    comp, env, amp = state.comp[keep], state.env[keep], amp[keep]
    if p1 < 1.0:
        comp = np.concatenate([comp, state.comp[hit] ^ bit])
        env = np.concatenate([env, state.env[hit] | np.int64(1 << state.env_count)])
        amp = np.concatenate([amp, state.amp[hit] * math.sqrt(1.0 - p1)])
    return SparseState(state.qubit_count, state.env_count + 1, comp, env, amp)


def chunked_reference(state, net, sched, watchdog="off"):
    """run() rebuilt from apply_network_batch on the gates between stops and
    reference_decay at each event, sharing none of run()'s event placement,
    settling, clock handling or decay split.  At each event or checkpoint position the
    events fire first, each with p1 from the law and its qubit's clock;
    then each checkpoint resets its qubits' clocks ('on', 'strict') and,
    in 'strict', projects them onto 0 and renormalises.  Returns the final
    state and the event records, which carry each event's position and clock
    origin."""
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
                log.append(EventRecord(ev.time, ev.qubit, pos, p1, 1.0 - p1, origin))
                state = reference_decay(state, ev.qubit, p1)
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
    """run() equals the chunked reference: snapshot byte for byte, and
    event_records the reference's records, with positions and clock
    origins."""
    out = run(state, net, sched, watchdog, **kw)
    got = (dump_state(out), event_records(net, sched, watchdog))
    want, want_log = chunked_reference(state, net, sched, watchdog)
    assert got == (dump_state(want), want_log)
    return got


def assert_rows_match_reference(state, net, sched, watchdog="off"):
    """run() equals the chunked reference row for row: comp, env and amp
    byte for byte and in the same order, which makes the snapshots
    byte-equal too, and event_records the reference's records, with
    positions and clock origins.  It formats no snapshot, so it is the
    cheaper check on large states."""
    out = run(state, net, sched, watchdog)
    want, want_log = chunked_reference(state, net, sched, watchdog)
    assert event_records(net, sched, watchdog) == want_log
    assert out.env_count == want.env_count
    for got, ref in ((out.comp, want.comp), (out.env, want.env), (out.amp, want.amp)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.fixture
def gate_path(monkeypatch):
    """The calls run() makes, in order, each still made: a single-gate
    kernel call as its list of (control, target) mask pairs, an event carried
    through gates as ("fire", a tuple of those pairs in the order carried), a
    lookup as ("table", start, stop) and a norm check as its label.  Only a
    recorder shows where norm checks fall and what ran before a refusal."""
    path = []

    def record(owner, name, step):
        call = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: path.append(step(*args)) or call(*args))

    record(simulator, "apply_masks", lambda comp, c, t: list(zip(c.tolist(), t.tolist())))
    record(simulator, "decay_through",
           lambda comp, c, t, *_: ("fire", tuple(zip(c.tolist(), t.tolist()))))
    record(gates.FusedBlock, "apply", lambda block, comp: ("table", block.start, block.stop))
    record(simulator, "_check_norm", lambda amp, label: label)
    return path


def planned(net, sched, watchdog="off"):
    """The plan of a run of ``net`` now, as (kind, a, b) triples."""
    return [step[:3] for step in simulator.plan(net, event_records(net, sched, watchdog), watchdog)]


def pinned_qubit(net, position):
    """The lowest qubit that gates position - 1 and position both touch: an
    event on it just before gate ``position`` has nowhere to slide."""
    (c0, t0), (c1, t1) = net.gates[position - 1:position + 1]
    shared = (c0 | t0) & (c1 | t1)
    assert shared, position
    return (shared & -shared).bit_length() - 1


def touched_wires(net, start, stop):
    """The mask of the wires that gates start..stop-1 touch."""
    wires = 0
    for c, t in net.gates[start:stop]:
        wires |= c | t
    return wires


def untouched_qubit(net, block):
    """The lowest qubit that no gate of ``block`` touches: an event on it
    inside the block slides to the block's start."""
    wires = touched_wires(net, block.start, block.stop)
    return (~wires & (wires + 1)).bit_length() - 1


def lookups_but(net, *units):
    """The lookups of the network's groups and blocks, but those of ``units``."""
    skip = [(u.start, u.stop) for u in units]
    return [("table", u.start, u.stop) for u in [*net.groups, *blocks_of(net)]
            if (u.start, u.stop) not in skip]


def group_lookups(net, sched, watchdog="off"):
    """The lookups of groups of several blocks in the plan of a run of ``net`` now."""
    return [step for step in simulator.plan(net, event_records(net, sched, watchdog), watchdog)
            if step.kind == "table" and step.unit.parts]


def assert_groups_tile_and_cut(net, groups, cuts):
    """``groups``, one group set of the network, checked to tile its gates,
    each its parts in order, to touch at most BLOCK_WIRES wires, to hold no
    position of ``cuts`` inside, and to be maximal: no group could take in
    the first block of the next one unless a cut falls between them."""
    assert [g.start for g in groups[1:]] == [g.stop for g in groups[:-1]]
    assert groups[0].start == 0 and groups[-1].stop == len(net.gates)
    assert_blocks_cover_and_cut(net)  # the groups' parts
    for g, nxt in zip(groups, [*groups[1:], None]):
        assert touched_wires(net, g.start, g.stop).bit_count() <= gates.BLOCK_WIRES
        assert not cuts & set(range(g.start + 1, g.stop))
        if g.parts:
            assert len(g.parts) > 1
            assert [p.start for p in g.parts[1:]] == [p.stop for p in g.parts[:-1]]
            assert (g.parts[0].start, g.parts[-1].stop) == (g.start, g.stop)
        if nxt is not None and nxt.start not in cuts:
            first = (nxt.parts or (nxt,))[0]
            assert touched_wires(net, g.start, first.stop).bit_count() > gates.BLOCK_WIRES
    return groups


def assert_group_sets(net):
    """Both group sets of the network, checked: ``net.groups`` tile the
    gates with no cut at checkpoints, ``net.checkpoint_groups`` with a cut
    at every checkpoint position, both over the same blocks.  Returns both
    sets."""
    groups = assert_groups_tile_and_cut(net, net.groups, set())
    cut = assert_groups_tile_and_cut(net, net.checkpoint_groups,
                                     {c.position for c in net.checkpoints})
    assert [p for g in cut for p in g.parts or (g,)] == blocks_of(net)
    return groups, cut


def random_gates(rng, width, count):
    gate_list = []
    for _ in range(count):
        wires = rng.choice(width, size=int(rng.integers(1, 4)), replace=False)
        gate_list.append(gate_masks(wires[1:].tolist(), int(wires[0])))
    return gate_list


def all_strings(width):
    """The uniform superposition of every basis string of ``width`` qubits."""
    values = np.arange(1 << width, dtype=np.int64)
    return SparseState(width, 0, values, np.zeros_like(values),
                       np.full(len(values), len(values) ** -0.5,
                               dtype=np.complex128))


def assert_blocks_cover_and_cut(net):
    """The network's blocks, checked to tile its gates, to touch at most
    FUSE_WIRES wires each, and to start at every checkpoint inside the
    network, which lets ``run()`` stop single gates at events only."""
    blocks = blocks_of(net)
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert blocks[0].start == 0 and blocks[-1].stop == len(net.gates)
    starts = {b.start for b in blocks}
    assert {c.position for c in net.checkpoints
            if c.position < len(net.gates)} <= starts
    for b in blocks:
        wires = 0
        for c, t in net.gates[b.start:b.stop]:
            wires |= c | t
        assert wires.bit_count() <= gates.FUSE_WIRES
    return blocks


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
        blocks = assert_blocks_cover_and_cut(factoring_15[2])
        assert len({id(b.table) for b in blocks}) < len(blocks)

    @pytest.mark.parametrize("watchdog, law", [
        ("off", STATIC_HALF), ("on", GAMMA), ("strict", GAMMA)])
    def test_events_on_block_boundaries_and_inside_one_block(self, factoring_15,
                                                             watchdog, law):
        _, layout, net = factoring_15
        blocks = blocks_of(net)
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
        blocks = blocks_of(net)
        total = len(net.gates)
        inside, slid = blocks[5], blocks[6]
        assert inside.stop - inside.start > 4 and slid.stop - slid.start > 2
        sched = NoiseSchedule([event_at(blocks[2].start, total, 14),
                               event_at(inside.start + 2, total,
                                        pinned_qubit(net, inside.start + 2)),
                               event_at(slid.start + 2, total,
                                        untouched_qubit(net, slid))],
                              STATIC_HALF)
        run(init_state(130, layout), fresh_copy(net), sched, verify_norm=True)
        # a first run: one kernel call between stops, each event's check
        # right after the call that reaches it, and no other check
        a, b, c = (math.ceil(ev.time * total) for ev in sched.events)
        decays = [f"decay event at t={ev.time}" for ev in sched.events]
        assert gate_path == ["the input state", list(net.gates[:a]), decays[0],
                             list(net.gates[a:b]), decays[1], list(net.gates[b:c]),
                             decays[2], list(net.gates[c:])]

    def test_norm_drift_detected_on_both_paths(self, factoring_15, gate_path,
                                               monkeypatch):
        _, layout, net = factoring_15
        state = init_state(130, layout)
        decay = simulator._decay

        def drifting_decay(*args):
            comp, env, amp = decay(*args)
            return comp, env, amp * 2.0

        monkeypatch.setattr(simulator, "_decay", drifting_decay)
        rerun = ran_before(net)
        first = blocks_of(rerun)[0]
        assert first.stop > 3
        last = first.stop - 1
        # A first run reaches each event in one kernel call.  On a rerun an
        # event just after gate 0 fires at the first block's start, carried
        # back through gate 0; one just before its last gate fires at its
        # stop, after the table, carried back through that gate; and one on
        # a qubit the block never touches slides to its start.  Each way
        # the check follows the event.
        for position, qubit, again in (
                (1, pinned_qubit(net, 1), [("fire", net.gates[:1])]),
                (last, pinned_qubit(net, last),
                 [("table", 0, first.stop), ("fire", net.gates[last:first.stop][::-1])]),
                (last, untouched_qubit(net, first), [])):
            event = event_at(position, len(net.gates), qubit)
            where = f"decay event at t={event.time}"
            for each, before in ((fresh_copy(net), [list(net.gates[:position])]),
                                 (rerun, again)):
                gate_path.clear()
                with pytest.raises(AssertionError,
                                   match=f"norm drifted to .* after {where}$"):
                    run(state, each, NoiseSchedule([event], STATIC_HALF),
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
        # the first run builds the masks the blocks are cut from; the blocks
        # come on the second run, as the groups' parts, and later runs reuse
        # both
        _, layout, net = factoring_15
        net = fresh_copy(net)
        run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        masks = vars(net)["masks"]
        assert "groups" not in vars(net)
        run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        groups = vars(net)["groups"]
        assert net.masks is masks and len(blocks_of(net)) > len(groups) > 1
        run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        assert net.masks is masks and net.groups is groups

    def test_mask_callers_build_no_blocks(self, factoring_15, monkeypatch):
        _, layout, net = factoring_15
        net = fresh_copy(net)
        compile_masks(net)
        assert "masks" not in vars(net)
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
        assert "masks" in vars(net) and "groups" not in vars(net)

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
        out = run(state, net, NoiseSchedule([], StaticDecay(1.0)))  # on planes
        assert len(blocks_of(net)) > 1
        assert np.array_equal(out.comp, apply_network_batch(state.comp, net))
        sched = sample_schedule(3, width, seed, STATIC_HALF)
        for watchdog in ("off", "on", "strict"):  # these walk the groups
            assert_matches_reference(state, net, sched, watchdog)
        assert_group_sets(net)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_small_networks_run_blocks_from_either_end(self, seed,
                                                               monkeypatch):
        # Short blocks, so events sit close to both ends and to each other,
        # and fire at the start, at the stop and at both; every run is a
        # rerun, through the groups and their blocks.
        monkeypatch.setattr(gates, "FUSE_WIRES", 4)
        net = ran_before(Network(random_gates(np.random.default_rng(100 + seed), 8, 80),
                                 8, [Checkpoint.of(40, [0, 1]), Checkpoint.of(60, [2])]))
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
            gate_list += [gate_masks(wires[pick[1:]].tolist(), int(wires[pick[0]]))
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
        blocks = blocks_of(net)
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
            assert block_digest(blocks_of(net)) == BLOCK_DIGESTS[q]

    def test_blocks_cover_the_gates_and_cut_at_checkpoints(self, wide_instance):
        net = wide_instance[2]
        assert len(net.checkpoints) > 10
        assert_blocks_cover_and_cut(net)

    def test_every_table_equals_its_gates_on_all_local_inputs(self, factoring_15,
                                                              wide_instance):
        # Each distinct table, of a block or a group, on the wires of the
        # first block using it: local bit j is the block's j-th lowest wire.
        for net in (factoring_15[2], wide_instance[2]):
            seen = set()
            assert any(g.parts for g in net.groups)
            for b in [*blocks_of(net), *net.groups]:
                if id(b.table) in seen:
                    continue
                seen.add(id(b.table))
                gate_list = net.gates[b.start:b.stop]
                wires = sorted({w for c, t in gate_list for w in mask_bits(c | t)})
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
        blocks = blocks_of(net)
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
        net = Network([gate_masks([], 17), gate_masks(range(1, 17), 0)], 18)
        problem = "gate 1: touches 17 wires; a fused block holds at most 16"
        assert validate_network(net) == [problem]
        message = f"^{re.escape(problem)}$"
        # The event between the two gates would run gate 0 through the kernel.
        sched = NoiseSchedule([event_at(1, 2, 17)], StaticDecay(1.0))
        for attempt in ("first run", "second run: nothing was cached"):
            with pytest.raises(ValueError, match=message):
                run(single_component(18, 131070), net, sched, verify_norm=True)
            assert gate_path == [], attempt
            assert "masks" not in vars(net), attempt
        for refused in (lambda: net.groups, lambda: compile_masks(net),
                        lambda: apply_network_batch([131070], net),
                        lambda: apply_network(131070, net),
                        lambda: exhaustive_network_check(net, lambda a: a, [0], [0])):
            with pytest.raises(ValueError, match=message):
                refused()
        assert gate_path == [] and "masks" not in vars(net)

    def test_gate_on_seventeen_wires_refused_by_the_kernel_and_oracles(self):
        # the only network check was run()'s: apply_network_batch gave
        # [262143] and the exhaustive check found no mismatch
        net = Network([gate_masks(range(1, 17), 0), gate_masks([], 17)], 18)
        message = f"^{re.escape('gate 0: touches 17 wires; a fused block holds at most 16')}$"
        with pytest.raises(ValueError, match=message):
            run(single_component(18, 131070), net, NoiseSchedule([], StaticDecay(1.0)))
        with pytest.raises(ValueError, match=message):
            apply_network_batch([131070], net)
        with pytest.raises(ValueError, match=message):
            exhaustive_network_check(net, lambda a: int(a == 65535), range(1 << 16),
                                     in_wires=list(range(1, 17)), out_wires=[0])

    def test_gate_on_sixteen_wires_runs(self):
        net = Network([gate_masks(range(1, 16), 0), gate_masks([], 16)], 17)
        rng = np.random.default_rng(16)
        values = np.unique(np.concatenate([[0xFFFE, 0xFFFF, 0x1FFFE],
                                           rng.integers(0, 1 << 17, 500)]))
        state = SparseState(17, 0, values, np.zeros_like(values),
                            np.full(len(values), len(values) ** -0.5,
                                    dtype=np.complex128))
        want = apply_network_batch(values, fresh_copy(net))
        for _ in range(2):  # on planes, then through the groups
            out = run(state, net, NoiseSchedule([], StaticDecay(1.0)))
            assert np.array_equal(out.comp, want)
        assert [g.table.size for g in net.groups] == [1 << 16, 2]


class TestEventBlocks:
    """An event inside a block first slides through the gates that do not
    touch its qubit, toward the nearer edge it can reach in order, the
    start on a tie.  With events still inside, each bound for the start
    fires there, carried back through the gates from there to it, then the
    block's table runs, and each bound for the stop fires there, carried
    back through the gates from the stop to it, last gate first: the fewest
    gates carried of any split that keeps the events' order.  A rerun makes
    no kernel call.  Every path agrees bit for bit with the chunked
    gate-by-gate reference."""

    @staticmethod
    def long_blocks(net):
        """The longest block of each group, if of 20 gates or more, in order;
        ``net`` runs as a rerun from here on, through its groups."""
        longest = (max(g.parts or (g,), key=lambda b: b.stop - b.start)
                   for g in net.groups)
        return [b for b in longest if b.stop - b.start >= 20]

    def test_each_block_fires_its_events_at_their_nearer_edges(self, factoring_15):
        _, layout, net = factoring_15
        long = self.long_blocks(net)
        # the middle block's middle gate shares a qubit with the gate before
        near_start, near_end, middle, slid = long[2], long[3], long[6], long[7]
        group = next(g for g in net.groups if g.start <= slid.start < g.stop)
        mid = (middle.start + middle.stop) // 2
        positions = [near_start.start + 1, near_end.stop - 1, mid]
        events = [event_at(p, len(net.gates), pinned_qubit(net, p))
                  for p in positions]
        events.append(event_at(slid.start + 5, len(net.gates),
                               untouched_qubit(net, group)))
        sched = NoiseSchedule(events, GAMMA)
        assert_matches_reference(init_state(130, layout), net, sched, "on", verify_norm=True)
        steps = planned(net, sched, "on")
        free = lookups_but(net, near_start, near_end, middle, group)
        # each in its own group, the pinned events walk its blocks: the
        # first event fires at its block's start, carried back through one
        # gate, then the table; the second fires after the table, carried
        # back through the block's last gate; the mid-block event is no
        # farther from the start than from the stop, so it fires at the
        # start, carried back through the gates before it; the last slides
        # to its group's start and is carried through no gate
        assert [step for step in steps if step not in free] == [
            ("fire", near_start.start, positions[0]),
            ("table", near_start.start, near_start.stop),
            ("table", near_end.start, near_end.stop), ("fire", near_end.stop, positions[1]),
            ("fire", middle.start, mid), ("table", middle.start, middle.stop),
            ("fire", group.start, group.start), ("table", group.start, group.stop)]
        assert not [step for step in steps if step[0] == "gates"]  # no kernel call

    def test_events_near_both_ends_leave_the_table_the_middle(self, factoring_15):
        # Two pinned events, two gates in from each end of one long block:
        # the first fires at the start, carried back through the head, the
        # table stands for the middle, and the second fires at the stop,
        # carried back through the tail, last gate first.
        _, layout, net = factoring_15
        block = self.long_blocks(net)[6]
        positions = [block.start + 2, block.stop - 2]
        events = [event_at(p, len(net.gates), pinned_qubit(net, p)) for p in positions]
        sched = NoiseSchedule(events, GAMMA)
        assert_matches_reference(init_state(130, layout), net, sched, "on", verify_norm=True)
        free = lookups_but(net, block)
        assert [step for step in planned(net, sched, "on") if step not in free] == [
            ("fire", block.start, block.start + 2), ("table", block.start, block.stop),
            ("fire", block.stop, block.stop - 2)]

    @pytest.mark.parametrize("watchdog, law", [
        ("off", STATIC_HALF), ("on", GAMMA), ("strict", GAMMA)])
    def test_several_events_per_block_and_in_adjacent_blocks(self, factoring_15,
                                                            watchdog, law):
        _, layout, net = factoring_15
        total = len(net.gates)
        first, second, third = self.long_blocks(net)[:3]
        blocks = blocks_of(net)
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
        net = Network([gate_masks((), 1), gate_masks((), 0)], 2, [Checkpoint.of(1, [1])])
        sched = NoiseSchedule([event_at(1, 2, 1), event_at(2, 2, 1)], GAMMA)
        out = run(single_component(2, 0), net, sched, watchdog)
        p1, later = math.exp(-2.5 * 0.25), math.exp(-2.5 * (0.75 - 0.5))
        assert event_records(net, sched, watchdog) == [
            EventRecord(0.25, 1, 1, p1, 1.0 - p1, 0.0),
            EventRecord(0.75, 1, 2, later, 1.0 - later, 0.5)]
        if watchdog == "strict":
            assert out.as_dict() == {(0b01, 1): 1.0}
        else:
            assert out.as_dict() == pytest.approx(
                {(0b11, 0): math.sqrt(p1 * later),
                 (0b01, 0b10): math.sqrt(p1 * (1.0 - later)),
                 (0b01, 1): math.sqrt(1.0 - p1)})
        assert_matches_reference(single_component(2, 0), net, sched, watchdog)


class TestSlide:
    """An event inside a block fires anywhere between the gates of the block
    that touch its qubit, and at the block's start or stop when none comes
    between, so most events run no single gate.  ``_slide`` sends each
    event, in order, to the nearer edge it can reach, the start on a tie,
    which carries the fewest gates of any order-keeping split.  The output
    stays bit for bit that of the chunked gate-by-gate reference."""

    @pytest.mark.parametrize("n_events", [10, 20])
    @pytest.mark.parametrize("law", [GAMMA, STATIC_HALF], ids=["gamma", "p1"])
    @pytest.mark.parametrize("watchdog", ["off", "on", "strict"])
    def test_random_schedules_n15(self, factoring_15, watchdog, law, n_events):
        # The first schedule is a first run of a fresh network, on bit
        # planes; the rest run again on one network, through its groups.
        _, layout, net = factoring_15
        again, lookups = ran_before(net), []
        for seed, each in enumerate([fresh_copy(net)] + [again] * 9):
            sched = sample_schedule(n_events, layout.qubit_count, 500 + seed, law)
            lookups += group_lookups(again, sched, watchdog) if seed else []
            assert_rows_match_reference(init_state(130, layout), each, sched, watchdog)
        assert lookups

    @pytest.mark.parametrize("watchdog", ["on", "strict"])
    def test_random_schedules_n21_n33(self, wide_instance, watchdog):
        q, layout, net = wide_instance
        net.masks  # as after a first run: each run walks the groups
        lookups = []
        for seed in (4, 5):
            sched = sample_schedule(10, layout.qubit_count, seed, GAMMA)
            lookups += group_lookups(net, sched, watchdog)
            assert_rows_match_reference(init_state(q, layout), net, sched, watchdog)
        assert lookups

    @pytest.mark.parametrize("seed", range(3))
    def test_slide_on_random_blocks(self, seed):
        # _slide alone, on random gates touching random qubits, a random
        # block and events strictly inside it, some on qubits past the end
        # of touches.
        rng = np.random.default_rng(seed)
        for _ in range(300):
            total = int(rng.integers(2, 30))
            touches = [np.flatnonzero(rng.random(total) < rng.random()).tolist()
                       for _ in range(int(rng.integers(1, 5)))]
            start = int(rng.integers(0, total - 1))
            stop = int(rng.integers(start + 2, total + 1))
            count = int(rng.integers(1, 5))
            positions = sorted(rng.integers(start + 1, stop, count).tolist())
            events = [DecayEvent(0.5, int(rng.integers(0, len(touches) + 2)))
                      for _ in positions]
            slid, k = simulator._slide(positions, events, touches, start, stop)
            assert slid == sorted(slid)  # the events keep their order
            lows, highs = [], []
            for pos, new, ev in zip(positions, slid, events):
                touch = touches[ev.qubit] if ev.qubit < len(touches) else []
                lows.append(max([start, *(g + 1 for g in touch if g < pos)]))
                highs.append(min([stop, *(g for g in touch if g >= pos)]))
                assert lows[-1] <= new <= highs[-1]

            def edges(j):
                """Split j: the first j events as near the start, the rest
                as near the stop, as their order allows."""
                return ([max(lows[:i + 1]) for i in range(j)]
                        + [min(highs[i:]) for i in range(j, count)])

            def carried(slid, j):
                return (sum(pos - start for pos in slid[:j])
                        + sum(stop - pos for pos in slid[j:]))
            splits = [(carried(edges(j), j), edges(j)) for j in range(count + 1)]
            assert slid == edges(k)
            fewest = min(total for total, _ in splits)
            assert carried(slid, k) == fewest
            # a tie goes to the start: no later split carries as few
            assert k == max(j for j, (total, _) in enumerate(splits) if total == fewest)
            inside = [pos for pos in slid if start < pos < stop]
            assert (not inside) == any(all(pos in (start, stop) for pos in ends)
                                       for _, ends in splits)

    @pytest.mark.parametrize("p1", [0.0, 1.0])
    @pytest.mark.parametrize("watchdog", ["off", "strict"])
    def test_certain_decay_and_certain_persistence(self, factoring_15, watchdog, p1):
        _, layout, net = factoring_15
        for seed in range(4):
            sched = sample_schedule(10, layout.qubit_count, 300 + seed, StaticDecay(p1))
            assert_rows_match_reference(init_state(130, layout), net, sched, watchdog)

    def test_events_on_qubits_beyond_the_network_run_no_single_gate(self, factoring_15):
        _, layout, net = factoring_15
        width = layout.qubit_count + 4
        base = init_state(130, layout)
        extra = (np.arange(130, dtype=np.int64) % 16) << layout.qubit_count
        state = SparseState(width, 0, base.comp | extra, base.env, base.amp)
        total = len(net.gates)
        inner = [b for b in blocks_of(net) if b.stop - b.start > 4][:4]
        events = [event_at(b.start + 2, total, layout.qubit_count + k)
                  for k, b in enumerate(inner)]
        assert_matches_reference(state, net, NoiseSchedule(events, GAMMA), "on",
                                 verify_norm=True)
        steps = planned(net, NoiseSchedule(events, GAMMA), "on")
        assert not [step for step in steps if step[0] == "gates"]
        assert all(a == b for kind, a, b in steps if kind == "fire")  # carried through none
        for seed in range(4):
            assert_rows_match_reference(state, net,
                                        sample_schedule(10, width, seed, STATIC_HALF))

    @pytest.mark.parametrize("watchdog", ["on", "strict"])
    def test_slid_to_a_checkpointed_start_fires_after_its_checkpoint(self, watchdog):
        # Gate 0 sets qubit 1 in one of two components; the checkpoint on
        # qubit 1 at 1 starts the block 1..4, whose gates leave qubit 1 alone
        # up to gate 3.  The event before gate 2 fires at 1, after the
        # checkpoint: 'on' counts from the reset, and 'strict' has projected
        # qubit 1 onto 0 first, so nothing decays.
        net = Network([gate_masks((), 1), gate_masks((), 0), gate_masks([0], 2),
                       gate_masks((), 1)], 3, [Checkpoint.of(1, [1])])
        assert [(b.start, b.stop) for b in blocks_of(net)] == [(0, 1), (1, 4)]
        state = SparseState.from_dict(3, 0, {(0b000, 0): 0.5 ** 0.5,
                                             (0b010, 0): 0.5 ** 0.5})
        event = event_at(2, 4, 1)
        _, log = assert_matches_reference(state, net, NoiseSchedule([event], GAMMA),
                                          watchdog, verify_norm=True)
        assert log[0].clock_origin == 0.25
        assert planned(net, NoiseSchedule([event], GAMMA), watchdog) == [
            ("table", 0, 1), *[("project", 1, 1)] * (watchdog == "strict"),
            ("fire", 1, 1), ("table", 1, 4)]

    @pytest.mark.parametrize("watchdog", ["on", "strict"])
    def test_slid_to_a_checkpointed_stop_fires_before_its_checkpoint(self, watchdog):
        # Gate 0 sets qubit 1; the rest of the block 0..3 leaves it alone, and
        # the checkpoint on qubit 1 at 3 ends the block.  The event before
        # gate 2 fires at 3, before the checkpoint: 'on' counts from the
        # start, and 'strict' projects after the decay, keeping its decayed
        # branch.
        net = Network([gate_masks((), 1), gate_masks((), 0), gate_masks([0], 2),
                       gate_masks((), 1)], 3, [Checkpoint.of(3, [1])])
        assert [(b.start, b.stop) for b in blocks_of(net)] == [(0, 3), (3, 4)]
        event = event_at(2, 4, 1)
        _, log = assert_matches_reference(single_component(3, 0), net,
                                          NoiseSchedule([event], GAMMA), watchdog,
                                          verify_norm=True)
        assert log[0].clock_origin == 0.0
        assert planned(net, NoiseSchedule([event], GAMMA), watchdog) == [
            ("table", 0, 3), ("fire", 3, 3), *[("project", 3, 3)] * (watchdog == "strict"),
            ("table", 3, 4)]

    @pytest.mark.parametrize("watchdog", ["on", "strict"])
    def test_slides_across_a_checkpoint_on_its_qubit_only_when_not_strict(self, watchdog):
        # No gate touches qubit 1, and the checkpoint on qubit 1 at 2 cuts
        # the blocks 0..2 and 2..5.  The event before gate 3 counts from that
        # checkpoint wherever it fires.  With the watchdog on, the one group
        # 0..5 spans the checkpoint, and the event slides across it to the
        # start; the strict groups are the two blocks, and the event slides
        # to 2, after the checkpoint has projected qubit 1 onto 0.
        net = ran_before(Network(
            [gate_masks((), 0), gate_masks([0], 2), gate_masks((), 2),
             gate_masks([2], 0), gate_masks((), 0)], 3, [Checkpoint.of(2, [1])]))
        assert [(b.start, b.stop) for b in blocks_of(net)] == [(0, 2), (2, 5)]
        state = SparseState.from_dict(3, 0, {(0b000, 0): 0.5 ** 0.5,
                                             (0b011, 0): 0.5 ** 0.5})
        event = event_at(3, 5, 1)
        _, log = assert_matches_reference(state, net, NoiseSchedule([event], GAMMA),
                                          watchdog, verify_norm=True)
        assert log[0].clock_origin == 0.4
        assert planned(net, NoiseSchedule([event], GAMMA), watchdog) == {
            "on": [("fire", 0, 0), ("table", 0, 5)],
            "strict": [("table", 0, 2), ("project", 2, 2), ("fire", 2, 2), ("table", 2, 5)],
        }[watchdog]

    @pytest.mark.parametrize("watchdog, law", [("off", STATIC_HALF), ("on", GAMMA)])
    def test_events_keep_their_order_when_only_the_earlier_reaches_the_stop(
            self, watchdog, law):
        # One block of six gates.  The event before gate 4 is on qubit 3,
        # which no gate touches, so it could fire at either end; the event
        # before gate 5 is on qubit 1, which only gate 5 touches, so it can
        # reach the start but not the stop.  Both fire at the start, in
        # order; each at its own nearer end would swap them.
        net = Network([gate_masks((), 0), gate_masks([0], 2), gate_masks((), 2),
                       gate_masks([2], 0), gate_masks((), 0), gate_masks((), 1)], 4)
        assert [(b.start, b.stop) for b in blocks_of(net)] == [(0, 6)]
        events = [event_at(4, 6, 3), event_at(5, 6, 1)]
        _, log = assert_matches_reference(all_strings(4), net,
                                          NoiseSchedule(events, law), watchdog,
                                          verify_norm=True)
        assert [rec.qubit for rec in log] == [3, 1]
        assert planned(net, NoiseSchedule(events, law), watchdog) == [
            ("fire", 0, 0), ("fire", 0, 0), ("table", 0, 6)]

    @pytest.mark.parametrize("watchdog, law", [("off", STATIC_HALF), ("on", GAMMA)])
    def test_events_slide_apart_to_both_ends(self, watchdog, law):
        # One block of six gates.  Only gate 1 touches qubit 1, so the event
        # before it can reach the start but not the stop; only gate 4 touches
        # qubit 2, so the event before gate 5 can reach the stop but not the
        # start.  The first slides to the start and the second to the stop,
        # which leaves the whole block to its table and no single gate.
        net = Network([gate_masks((), 0), gate_masks((), 1), gate_masks((), 0),
                       gate_masks((), 0), gate_masks((), 2), gate_masks((), 0)], 3)
        assert [(b.start, b.stop) for b in blocks_of(net)] == [(0, 6)]
        events = [event_at(1, 6, 1), event_at(5, 6, 2)]
        assert_matches_reference(all_strings(3), net,
                                 NoiseSchedule(events, law), watchdog, verify_norm=True)
        assert planned(net, NoiseSchedule(events, law), watchdog) == [
            ("fire", 0, 0), ("table", 0, 6), ("fire", 6, 6)]

    def test_each_event_fires_at_its_nearer_edge(self):
        # One block of 20 gates, alternating X0 and CNOT 0->1, so every gate
        # touches qubit 0 and an event on it cannot slide.  Of the events
        # before gates 6, 12 and 13, the first fires at the start, carried
        # back through 6 gates, and the other two at the stop, through 8 and
        # 7: 21 gates, where firing all three at the start would carry 31.
        net = Network([gate_masks([0], 1) if g % 2 else gate_masks((), 0)
                       for g in range(20)], 3)
        assert [(b.start, b.stop) for b in blocks_of(net)] == [(0, 20)]  # a rerun from here
        sched = NoiseSchedule([event_at(p, 20, 0) for p in (6, 12, 13)], STATIC_HALF)
        assert_matches_reference(all_strings(3), net, sched, verify_norm=True)
        steps = planned(net, sched)
        assert steps == [("fire", 0, 6), ("table", 0, 20), ("fire", 20, 12), ("fire", 20, 13)]
        assert sum(abs(b - a) for kind, a, b in steps if kind == "fire") == 21


class TestGroups:
    """A network that runs again walks its groups: runs of consecutive
    blocks on at most BLOCK_WIRES wires, which only in strict mode are also
    cut at every checkpoint position (``net.checkpoint_groups``; with the
    watchdog on or off, ``net.groups``).  Its events first slide through
    the group's gates that do not touch their qubits; a group with none
    left inside is one lookup, and one with an event still inside walks
    its blocks, its parts.  Every path agrees bit for bit with the chunked
    gate-by-gate reference."""

    def test_first_run_builds_no_group(self, factoring_15):
        # a strict first run stops at every event and checkpoint position;
        # its second run builds the strict groups only
        _, layout, net = factoring_15
        net, total = fresh_copy(net), len(net.gates)
        sched = sample_schedule(10, layout.qubit_count, 7, GAMMA)
        steps = planned(net, sched, "strict")
        assert_rows_match_reference(init_state(130, layout), net, sched, "strict")
        masks = vars(net)["masks"]
        assert not {"groups", "checkpoint_groups"} & vars(net).keys()
        assert all(kind == "gates" or a == b for kind, a, b in steps)  # no lookup
        positions = {math.ceil(ev.time * total) for ev in sched.events}
        stops = {*positions, *(chk.position for chk in net.checkpoints)} - {0, total}
        assert len([step for step in steps if step[0] == "gates"]) == len(stops) + 1
        lookups = group_lookups(net, sched, "strict")
        assert_rows_match_reference(init_state(130, layout), net, sched, "strict")
        assert net.masks is masks and "checkpoint_groups" in vars(net)
        assert "groups" not in vars(net)
        assert lookups

    @pytest.mark.parametrize("watchdog, law", [("off", STATIC_HALF), ("on", GAMMA)])
    def test_first_run_stops_at_events_only(self, factoring_15, watchdog, law):
        # with the watchdog on or off a checkpoint does not act on the
        # state, so a first run makes one kernel call per distinct event
        # position inside the gate list, plus one
        _, layout, net = factoring_15
        total = len(net.gates)
        events = [*sample_schedule(10, layout.qubit_count, 7, law).events]
        at = math.ceil(events[3].time * total)
        events[3:5] = [DecayEvent((at - 0.5) / total, 2),  # two events before
                       DecayEvent((at - 0.25) / total, 14)]  # one gate
        sched = NoiseSchedule(events, law)
        fresh = fresh_copy(net)
        steps = planned(fresh, sched, watchdog)
        assert_rows_match_reference(init_state(130, layout), fresh, sched, watchdog)
        positions = {math.ceil(ev.time * total) for ev in events}
        assert len(positions) == 9 and all(0 < p < total for p in positions)
        stops = sorted({0, *positions, total})
        assert [step for step in steps if step[0] == "gates"] == [
            ("gates", a, b) for a, b in zip(stops, stops[1:])]

    def test_groups_tile_the_gates_and_span_no_checkpoint(self, factoring_15,
                                                          wide_instance):
        net = factoring_15[2]
        groups, cut = assert_group_sets(net)
        assert (len(blocks_of(net)), len(groups), len(cut)) == (200, 40, 72)
        net = wide_instance[2]
        assert len(net.checkpoints) > 10
        for each in assert_group_sets(net):
            assert sum(1 for g in each if g.parts) > 100

    def test_second_run_without_inner_events_is_one_lookup_per_group(self, factoring_15):
        _, layout, net = factoring_15
        net, state = fresh_copy(net), init_state(130, layout)
        first = run(state, net, NoiseSchedule([], STATIC_HALF))
        steps = planned(net, NoiseSchedule([], STATIC_HALF))
        again = run(state, net, NoiseSchedule([], STATIC_HALF), verify_norm=True)
        groups, total = net.groups, len(net.gates)
        tables = [("table", g.start, g.stop) for g in groups]
        assert steps == tables
        assert again.comp.tobytes() == first.comp.tobytes()
        assert np.array_equal(again.comp, apply_network_batch(state.comp, net))
        # events on group boundaries fire between the lookups; a strict
        # rerun builds and walks the groups cut at checkpoints
        assert "checkpoint_groups" not in vars(net)
        groups = net.checkpoint_groups
        tables = [("table", g.start, g.stop) for g in groups]
        events = [event_at(groups[k].start, total, qb)
                  for k, qb in ((3, 14), (11, 2), (40, 20))]
        assert_matches_reference(state, net, NoiseSchedule(events, GAMMA), "strict",
                                 verify_norm=True)
        steps = planned(net, NoiseSchedule(events, GAMMA), "strict")
        decays = [("fire", groups[k].start, groups[k].start) for k in (3, 11, 40)]
        assert [step for step in steps if step[0] != "project"] == [
            *tables[:3], decays[0], *tables[3:11], decays[1], *tables[11:40], decays[2],
            *tables[40:]]
        assert [step for step in steps if step[0] == "project"] == [
            ("project", chk.position, chk.position) for chk in net.checkpoints]

    @pytest.mark.parametrize("watchdog, law", [
        ("off", STATIC_HALF), ("on", GAMMA), ("strict", GAMMA)])
    def test_event_on_a_qubit_the_group_never_touches_slides_out(
            self, factoring_15, watchdog, law):
        _, layout, net = factoring_15
        net = ran_before(net)
        groups = net.checkpoint_groups if watchdog == "strict" else net.groups
        total = len(net.gates)
        several = [k for k, g in enumerate(groups) if g.parts]
        i, j = several[1], several[4]
        # to its group's start: a qubit no gate of the group touches, from
        # inside the group's second block
        early = event_at(groups[i].parts[1].start + 1, total,
                         untouched_qubit(net, groups[i]))
        # to its group's stop: the qubit whose last gate in the group comes
        # first, from just after that gate
        last = {}
        for g in range(groups[j].start, groups[j].stop):
            for w in mask_bits(net.gates[g][0] | net.gates[g][1]):
                last[w] = g
        qubit, gate = min(last.items(), key=lambda item: item[1])
        assert groups[j].start < gate + 1 < groups[j].stop
        late = event_at(gate + 1, total, qubit)
        sched = NoiseSchedule([early, late], law)
        assert_matches_reference(init_state(130, layout), net, sched, watchdog,
                                 verify_norm=True)
        tables = [("table", g.start, g.stop) for g in groups]
        steps = [step for step in planned(net, sched, watchdog) if step[0] != "project"]
        assert steps == [*tables[:i], ("fire", groups[i].start, groups[i].start),
                         *tables[i:j + 1], ("fire", groups[j].stop, groups[j].stop),
                         *tables[j + 1:]]

    @pytest.mark.parametrize("watchdog, law", [("off", STATIC_HALF), ("strict", GAMMA)])
    def test_event_pinned_inside_a_group_runs_its_blocks(self, factoring_15, watchdog, law):
        _, layout, net = factoring_15
        net = ran_before(net)
        groups = net.checkpoint_groups if watchdog == "strict" else net.groups
        total = len(net.gates)
        k = [k for k, g in enumerate(groups) if g.parts][2]
        parts = groups[k].parts
        position = parts[1].start + 1
        sched = NoiseSchedule([event_at(position, total, pinned_qubit(net, position))], law)
        assert_matches_reference(init_state(130, layout), net, sched, watchdog,
                                 verify_norm=True)
        tables = [("table", g.start, g.stop) for g in groups]
        # the group's blocks: the first and last are lookups, and the event
        # fires at its block's start, carried back through one gate, then
        # the block's table
        steps = [step for step in planned(net, sched, watchdog) if step[0] != "project"]
        assert steps == [*tables[:k], ("table", parts[0].start, parts[0].stop),
                         ("fire", parts[1].start, position),
                         *(("table", p.start, p.stop) for p in parts[1:]), *tables[k + 1:]]


def recorded(net, steps):
    """What ``gate_path`` records of these plan steps: each kernel call,
    each event carried through gates and each lookup."""
    path = []
    for kind, a, b, _ in steps:
        if kind == "gates":
            path.append(list(net.gates[a:b]))
        elif kind == "table":
            path.append(("table", a, b))
        elif kind == "fire" and a != b:
            path.append(("fire", net.gates[a:b] if a < b else net.gates[b:a][::-1]))
    return path


class TestPlan:
    """``run()`` makes the calls its ``plan`` names, in order, which lets
    every other path test read the plan."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["n15", "small0", "small1", "small2"])
    def test_runs_make_the_calls_their_plans_name(self, factoring_15, gate_path, monkeypatch,
                                                  seed):
        # In each mode, on a fresh network: the first run, the rerun that
        # builds the tables and a warm rerun, each on a random schedule; at
        # N=15, and on random networks cut into many small blocks and groups.
        rng = np.random.default_rng(seed)
        if seed is None:
            _, layout, net = factoring_15
            state, most = init_state(130, layout), 20
        else:
            monkeypatch.setattr(gates, "FUSE_WIRES", 3)
            monkeypatch.setattr(gates, "BLOCK_WIRES", 5)
            width = int(rng.integers(5, 9))
            gate_list = random_gates(rng, width, int(rng.integers(40, 80)))
            net = Network(gate_list, width, [
                Checkpoint.of(int(pos), rng.choice(width, size=2, replace=False).tolist())
                for pos in sorted(rng.choice(len(gate_list) + 1, size=3, replace=False))])
            state, most = all_strings(width), 8
        seen = set()
        for watchdog in ("off", "on", "strict"):
            each = fresh_copy(net)
            for law in (GAMMA, STATIC_HALF, GAMMA):  # first run, tables built, warm
                sched = sample_schedule(int(rng.integers(0, most + 1)), state.qubit_count,
                                        int(rng.integers(1 << 30)), law)
                steps = simulator.plan(each, event_records(each, sched, watchdog), watchdog)
                gate_path.clear()
                run(state, each, sched, watchdog)
                assert gate_path == recorded(each, steps)
                assert [step.unit for step in steps if step.kind == "project"] == list(
                    each.checkpoints if watchdog == "strict" else ())
                seen |= {(kind, a == b) for kind, a, b, _ in steps}
        assert {("gates", False), ("table", False), ("fire", True), ("fire", False),
                ("project", True)} <= seen


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


def rows_state(layout, rows, q, seed):
    """One component in each of ``rows`` (rest, env) groups."""
    rng = np.random.default_rng(seed)
    comp = ((np.arange(rows, dtype=np.int64) << layout.reg2.start)
            | rng.integers(0, q, rows))
    amp = (rng.normal(size=rows) + 1j * rng.normal(size=rows)) / math.sqrt(2 * rows)
    return SparseState(layout.qubit_count, 2, comp, rng.integers(0, 4, rows), amp)


def reference_tables(state, layout, q):
    """The distribution_ned/ed tables of the transformed state."""
    forward = fourier_first_register(state, q, layout)
    return distribution_ned(forward, layout, q), distribution_ed(forward, layout, q)


def assert_tables_match_reference(state, layout, q, reference=None):
    """outcome_tables equals the ``reference_tables``, or ``reference`` if
    given, byte for byte, and returns them."""
    got = outcome_tables(state, layout, q)
    for table, want in zip(got, reference or reference_tables(state, layout, q)):
        assert table.variant == want.variant
        assert table.table.dtype == want.table.dtype == np.float64
        assert table.table.shape == want.table.shape
        assert table.table.flags.c_contiguous
        assert table.table.tobytes() == want.table.tobytes()
    return got


class TestOutcomeTables:
    """outcome_tables against fourier_first_register + distribution_ned/ed."""

    @pytest.mark.parametrize("watchdog", ["off", "on", "strict"])
    @pytest.mark.parametrize("n_events, law", [(10, GAMMA), (20, STATIC_HALF)])
    def test_noisy_runs_n15(self, factoring_15, watchdog, n_events, law):
        _, layout, net = factoring_15
        sched = sample_schedule(n_events, layout.qubit_count, 7 + n_events, law)
        assert_tables_match_reference(run(init_state(130, layout), net, sched,
                                          watchdog), layout, 130)

    @pytest.mark.parametrize("watchdog", ["off", "on", "strict"])
    def test_noisy_runs_n21_n33(self, wide_instance, watchdog):
        q, layout, net = wide_instance
        sched = sample_schedule(10, layout.qubit_count, 5, GAMMA)
        assert_tables_match_reference(run(init_state(q, layout), net, sched,
                                          watchdog), layout, q)

    @pytest.mark.parametrize("q", [2, 3])
    def test_smallest_q(self, q):
        # rows q elements long, where an axis-0 sum could turn pairwise
        layout = RegisterLayout.for_factoring(4, q=q)
        net = build_modexp(ArithParams.create(15, 7, q), layout)
        for seed in range(3):
            sched = sample_schedule(20, layout.qubit_count, seed, STATIC_HALF)
            assert_tables_match_reference(run(init_state(q, layout), net, sched),
                                          layout, q)

    @pytest.mark.parametrize("chunk", [7 * 130 + 3, 1])
    def test_chunks_that_split_r2_groups(self, factoring_15, monkeypatch, chunk):
        _, layout, net = factoring_15
        state = run(init_state(130, layout), net,
                    sample_schedule(20, layout.qubit_count, 2, STATIC_HALF))
        rest = simulator._rows(state, 130, layout)[0]
        r2 = (rest >> layout.reg2.start) & ((1 << len(layout.reg2)) - 1)
        step = max(1, chunk // 130)  # rows per chunk
        # some r2 value has rows in the first chunk and in a later one
        assert set(r2[:step].tolist()) & set(r2[step:].tolist())
        # the reference at the default chunk: at chunk 1 its passes would
        # cut the state into one-element slices; TestStreamedTables covers
        # how they slice
        reference = reference_tables(state, layout, 130)
        monkeypatch.setattr(simulator, "TABLE_CHUNK", chunk)
        assert_tables_match_reference(state, layout, 130, reference)

    def test_no_clean_rows(self, factoring_15):
        _, layout, net = factoring_15
        state = run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        state.comp |= np.int64(1 << layout.add_work.start)
        _, ed = assert_tables_match_reference(state, layout, 130)
        assert ed.table.tobytes() == np.zeros((130, 16)).tobytes()

    def test_empty_state(self):
        layout = RegisterLayout.for_factoring(2, q=8)
        empty = np.zeros(0, dtype=np.int64)
        state = SparseState(layout.qubit_count, 0, empty, empty.copy(),
                            np.zeros(0, dtype=np.complex128))
        assert_tables_match_reference(state, layout, 8)

    def test_bad_states_raise_as_the_transform_does(self):
        layout = RegisterLayout.for_factoring(2, q=8)
        repeated = SparseState(layout.qubit_count, 1,
                               np.array([3, 5, 3], dtype=np.int64),
                               np.array([1, 1, 1], dtype=np.int64),
                               np.full(3, 3 ** -0.5, dtype=np.complex128))
        for state, q in ((repeated, 8), (single_component(layout.qubit_count, 7), 4)):
            with pytest.raises(ValueError) as want:
                fourier_first_register(state, q, layout)
            with pytest.raises(ValueError) as got:
                outcome_tables(state, layout, q)
            assert str(got.value) == str(want.value)

    def test_traced_peak_is_set_by_the_chunk_not_the_rows(self):
        q = 1024
        layout = RegisterLayout.for_factoring(4, q=q)
        # per chunk element: the transformed row (16 bytes), its squared
        # moduli and cell indices (8 each) and the clean rows' copies (16);
        # then both tables and 1 MB for the per-component arrays
        bound = 48 * simulator.TABLE_CHUNK + 2 * q * 16 * 8 + (1 << 20)
        for rows in (1000, 4000):  # 1.0 and 4.1 million transformed rows
            state = rows_state(layout, rows, q, seed=rows)
            tracemalloc.start()
            try:
                outcome_tables(state, layout, q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rows * q >= 10 ** 6 and peak < bound < 16 * rows * q


def slices_state(layout, q, slices, seed):
    """``slices`` whole ``TABLE_CHUNK`` slices and a short last one of
    components with first-register values below q, random r2 values and
    amplitudes, and a scratch wire set in about half of them and in every
    component of the second slice, so that ed keeps nothing there.  Keys
    may repeat: the table passes do not group components."""
    chunk = simulator.TABLE_CHUNK
    n = slices * chunk + 3
    rng = np.random.default_rng(seed)
    comp = (rng.integers(0, q, n) << layout.reg1.start
            | rng.integers(0, 1 << len(layout.reg2), n) << layout.reg2.start)
    dirty = rng.random(n) < 0.5
    dirty[chunk:2 * chunk] = True
    comp[dirty] |= 1 << layout.add_work.start
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SparseState(layout.qubit_count, 0, comp, np.zeros(n, dtype=np.int64), amp)


def clean(state, layout):
    return (state.comp & np.int64(layout.work_mask())) == 0


class TestStreamedTables:
    """distribution_ned and distribution_ed add each TABLE_CHUNK slice of the
    state into one table, byte for byte as the np.add.at reference over the
    whole state, with buffers of one slice; norm_squared streams the same
    slices with no buffer kept between them, under the same memory bound."""

    @pytest.mark.parametrize("chunk", [None, 5], ids=["TABLE_CHUNK", "5"])
    def test_tables_match_the_reference_across_slices(self, monkeypatch, chunk):
        if chunk:
            monkeypatch.setattr(simulator, "TABLE_CHUNK", chunk)
        chunk = simulator.TABLE_CHUNK
        layout = RegisterLayout.for_factoring(4, q=130)
        state = slices_state(layout, 130, 3, seed=chunk)
        keep = clean(state, layout)
        assert keep.any() and not keep[chunk:2 * chunk].any()
        for got, select in ((distribution_ned(state, layout, 130), None),
                            (distribution_ed(state, layout, 130), keep)):
            want = reference_table(state, layout, 130, select)
            assert got.table.dtype == want.dtype and got.table.shape == want.shape
            assert got.table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [None, 5], ids=["TABLE_CHUNK", "5"])
    def test_a_beyond_q_only_in_the_last_slice(self, monkeypatch, chunk):
        if chunk:
            monkeypatch.setattr(simulator, "TABLE_CHUNK", chunk)
        layout = RegisterLayout.for_factoring(4, q=130)
        state = slices_state(layout, 130, 2, seed=3)
        dirt = np.int64(layout.work_mask() | layout.reg1_mask())
        state.comp[-1] = state.comp[-1] & ~dirt | 130 << layout.reg1.start
        for call in (distribution_ned, distribution_ed):
            with pytest.raises(ValueError, match="^component with first-register value >= q$"):
                call(state, layout, 130)
        state.comp[-1] |= 1 << layout.add_work.start  # ed discards it
        with pytest.raises(ValueError, match="^component with first-register value >= q$"):
            distribution_ned(state, layout, 130)
        got = distribution_ed(state, layout, 130).table
        assert got.tobytes() == reference_table(state, layout, 130,
                                                clean(state, layout)).tobytes()

    def test_table_passes_start_no_thread(self, monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()
        monkeypatch.setattr(threading, "Thread", Counted)
        monkeypatch.setattr(simulator, "SPLIT_MIN", 0)
        layout = RegisterLayout.for_factoring(4, q=130)
        forward = fourier_first_register(rows_state(layout, 9, 130, seed=9), 130, layout)
        assert len(started) == 1  # the transform split
        distribution_ned(forward, layout, 130)
        distribution_ed(forward, layout, 130)
        assert len(started) == 1

    def test_traced_peak_is_set_by_the_chunk_not_the_state(self):
        q = 130
        layout = RegisterLayout.for_factoring(4, q=q)
        # per slice element: cells and weights (8 bytes each) and, for ed,
        # the keep mask (1) and the kept components and amplitudes (8 + 16);
        # then the table and 1 MB for the rest
        bound = 41 * simulator.TABLE_CHUNK + q * 16 * 8 + (1 << 20)
        for slices in (16, 32):  # 1.0 and 2.1 million components
            state = slices_state(layout, q, slices, seed=slices)
            for call in (lambda: distribution_ned(state, layout, q),
                         lambda: distribution_ed(state, layout, q),
                         state.norm_squared):
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert len(state.amp) >= 10 ** 6 and peak < bound < 8 * len(state.amp)


class TestNormSquared:
    """One norm pass for SparseState.norm_squared and run's norm checks,
    within 1e-15 of math.fsum over the squared parts."""

    @staticmethod
    def exact(amp):
        parts = np.ascontiguousarray(amp, dtype=np.complex128).view(np.float64)
        return math.fsum((parts * parts).tolist())

    def test_within_1e_15_of_fsum(self, factoring_15):
        _, layout, net = factoring_15
        empty = np.zeros(0, dtype=np.int64)
        states = [SparseState(layout.qubit_count, 0, empty, empty.copy(),
                              np.zeros(0, dtype=np.complex128)),
                  init_state(130, layout)]
        for seed in range(4):
            sched = sample_schedule(20, layout.qubit_count, seed, STATIC_HALF)
            for watchdog in ("off", "strict"):
                states.append(run(init_state(130, layout), net, sched, watchdog))
        states.append(fourier_first_register(states[-1], 130, layout))
        big = slices_state(layout, 130, 3, seed=1)
        big.amp /= math.sqrt(self.exact(big.amp))
        states.append(big)
        assert max(len(s.amp) for s in states) > 2 * simulator.TABLE_CHUNK
        for state in states:
            want = self.exact(state.amp)
            assert want == 0.0 or abs(want - 1.0) < 1e-12
            assert abs(state.norm_squared() - want) <= 1e-15

    def test_run_checks_the_norm_with_the_same_pass(self, factoring_15, monkeypatch):
        _, layout, net = factoring_15
        seen = []
        norm_squared = simulator._norm_squared

        def counted(amp):
            seen.append(len(amp))
            return norm_squared(amp)
        monkeypatch.setattr(simulator, "_norm_squared", counted)
        sched = sample_schedule(3, layout.qubit_count, 1, STATIC_HALF)
        run(init_state(130, layout), fresh_copy(net), sched, verify_norm=True)
        assert len(seen) == 4 and seen[0] == 130  # the input, then each event


@pytest.fixture(params=["split", "inline"])
def split(request, monkeypatch):
    """The transform and table passes forced into two halves on two threads
    (threshold 0) or forced inline; yields the threads started."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Counted)
    if request.param == "split":
        monkeypatch.setattr(simulator, "SPLIT_MIN", 0)
    else:
        monkeypatch.setattr(simulator, "SPLIT_MIN", sys.maxsize)
    yield started
    assert bool(started) == (request.param == "split")
    assert not any(t.is_alive() for t in started)


def in_a_thread(call, timeout=30.0):
    """What ``call()`` returns or raises, failing if it takes past ``timeout``."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:
            outcome["raised"] = exc
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the call hung"
    return outcome


class TestSplitPasses:
    """Transforms and tables byte for byte, split in two halves or not."""

    def test_empty_state(self, split):
        layout = RegisterLayout.for_factoring(2, q=8)
        empty = np.zeros(0, dtype=np.int64)
        state = SparseState(layout.qubit_count, 0, empty, empty.copy(),
                            np.zeros(0, dtype=np.complex128))
        assert_kernels_match_reference(state, layout, 8)
        assert_tables_match_reference(state, layout, 8)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_one_row_and_an_odd_row_count(self, split, rows):
        layout = RegisterLayout.for_factoring(4, q=130)
        state = rows_state(layout, rows, 130, seed=rows)
        assert len(simulator._rows(state, 130, layout)[0]) == rows
        assert_kernels_match_reference(state, layout, 130)
        assert_tables_match_reference(state, layout, 130)

    def test_signed_zero_group(self, split):
        layout = RegisterLayout.for_factoring(2, q=8)
        amps = {(a | 7 << 3, 2): complex(-0.0, -0.0) for a in range(5)}
        amps[(1 | 2 << 3, 0)] = 0.5 + 0.5j
        state = SparseState.from_dict(layout.qubit_count, 3, amps)
        assert_kernels_match_reference(state, layout, 5)
        assert_tables_match_reference(state, layout, 5)

    def test_selection_that_keeps_nothing(self, factoring_15, split):
        _, layout, net = factoring_15
        state = run(init_state(130, layout), net, NoiseSchedule([], STATIC_HALF))
        state.comp |= np.int64(1 << layout.add_work.start)
        forward = fourier_first_register(state, 130, layout)
        assert not distribution_ed(forward, layout, 130).table.any()
        assert_kernels_match_reference(state, layout, 130)
        assert_tables_match_reference(state, layout, 130)

    def test_noisy_n21_state(self, split):
        layout = RegisterLayout.for_factoring(5, q=512)
        net = build_modexp(ArithParams.create(21, 2, 512), layout)
        sched = sample_schedule(10, layout.qubit_count, 5, GAMMA)
        state = run(init_state(512, layout), net, sched, "on")
        assert_kernels_match_reference(state, layout, 512)
        assert_tables_match_reference(state, layout, 512)

    def test_bad_states_raise_as_before(self, split):
        layout = RegisterLayout.for_factoring(2, q=8)
        repeated = SparseState(layout.qubit_count, 1,
                               np.array([3, 5, 3], dtype=np.int64),
                               np.array([1, 1, 1], dtype=np.int64),
                               np.full(3, 3 ** -0.5, dtype=np.complex128))
        with pytest.raises(ValueError, match="^repeated \\(comp, env\\) key in the sparse state$"):
            fourier_first_register(repeated, 8, layout)
        beyond = single_component(layout.qubit_count, 7)
        for call in (fourier_first_register, inverse_fourier_first_register):
            with pytest.raises(ValueError, match="^component with first-register value >= q$"):
                call(beyond, 4, layout)
        # Both are refused before any row is transformed.  A good state on
        # the same path splits, as the fixture checks; the table passes,
        # which never split, are checked in TestStreamedTables.
        fourier_first_register(single_component(layout.qubit_count, 3), 4, layout)

    def test_a_failure_in_the_worker_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(simulator, "SPLIT_MIN", 0)
        layout = RegisterLayout.for_factoring(4, q=130)
        transform_rows = simulator._transform_rows

        def failing_upper_half(dense, rows, *args):
            if rows.start:  # the worker's half
                raise MemoryError("in the worker")
            transform_rows(dense, rows, *args)
        monkeypatch.setattr(simulator, "_transform_rows", failing_upper_half)
        outcome = in_a_thread(lambda: fourier_first_register(
            rows_state(layout, 9, 130, seed=9), 130, layout))
        assert "value" not in outcome
        assert isinstance(outcome["raised"], MemoryError)

    def test_the_caller_waits_for_the_worker_before_raising(self, monkeypatch):
        monkeypatch.setattr(simulator, "SPLIT_MIN", 0)
        done = []

        def part(lo, hi):
            if lo == 0:
                raise KeyError("in the lower half")
            time.sleep(0.2)
            done.append((lo, hi))
        outcome = in_a_thread(lambda: simulator._in_halves(10, 10, part))
        assert isinstance(outcome["raised"], KeyError)
        assert done == [(5, 10)]

    def test_split_needs_the_threshold(self):
        calls = []
        simulator._in_halves(10, simulator.SPLIT_MIN - 1, lambda lo, hi: calls.append((lo, hi)))
        assert calls == [(0, 10)]
        calls.clear()
        simulator._in_halves(10, simulator.SPLIT_MIN, lambda lo, hi: calls.append((lo, hi)))
        assert sorted(calls) == [(0, 5), (5, 10)]

    def test_no_thread_below_the_threshold(self):
        # a fresh interpreter, so that nothing else has started a thread
        code = """
import threading
from shorsim import RegisterLayout, fourier_first_register, init_state
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self), start(self))[1]
layout = RegisterLayout.for_factoring(4, q=130)
fourier_first_register(init_state(130, layout), 130, layout)
print(len(started), threading.active_count())
"""
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=60)
        assert result.stdout.split() == ["0", "1"], result.stderr


class TestIntegerQ:
    @pytest.mark.parametrize("call, text", [
        (lambda layout, state: init_state(130.5, layout), "q=130.5"),
        (lambda layout, state: fourier_first_register(state, 130.0, layout), "q=130.0"),
        (lambda layout, state: inverse_fourier_first_register(state, 130.0, layout),
         "q=130.0"),
        (lambda layout, state: distribution_ned(state, layout, 130.0), "q=130.0"),
        (lambda layout, state: distribution_ed(state, layout, 130.0), "q=130.0"),
        (lambda layout, state: outcome_tables(state, layout, 130.0), "q=130.0")],
        ids=["init_state", "fourier_first_register", "inverse_fourier_first_register",
             "distribution_ned", "distribution_ed", "outcome_tables"])
    def test_non_integer_q_refused(self, call, text):
        # unchecked, numpy or range raised a TypeError deep inside
        layout = RegisterLayout.for_factoring(4, q=130)
        with pytest.raises(ValueError, match=f"^{re.escape(text)} must be an integer$"):
            call(layout, init_state(130, layout))

    def test_numpy_integer_q_passes(self, factoring_15):
        _, layout, net = factoring_15
        sched = sample_schedule(10, layout.qubit_count, 3, GAMMA)
        state = run(init_state(np.int64(130), layout), net, sched)
        assert state.amp.tobytes() == run(init_state(130, layout), net, sched).amp.tobytes()
        forward = fourier_first_register(state, np.int64(130), layout)
        assert_same_bytes(forward, fourier_first_register(state, 130, layout))
        assert_same_bytes(inverse_fourier_first_register(forward, np.int64(130), layout),
                          inverse_fourier_first_register(forward, 130, layout))
        for call in (distribution_ned, distribution_ed):
            assert (call(forward, layout, np.int64(130)).table.tobytes()
                    == call(forward, layout, 130).table.tobytes())
        for got, want in zip(outcome_tables(state, layout, np.int64(130)),
                             outcome_tables(state, layout, 130)):
            assert got.table.tobytes() == want.table.tobytes()


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

    @pytest.mark.parametrize("n_events", [-1, MAX_EVENTS + 1])
    def test_event_count_outside_the_record_refused(self, n_events):
        with pytest.raises(ValueError, match=f"^n_events={n_events} outside 0..63$"):
            sample_schedule(n_events, 26, 0, STATIC_HALF)

    @pytest.mark.parametrize("n_qubits", [0, -3])
    def test_no_qubits_refused(self, n_qubits):
        # unchecked, numpy's rng.integers died with "high <= 0"
        with pytest.raises(ValueError, match=f"^n_qubits={n_qubits} must be at least 1$"):
            sample_schedule(3, n_qubits, 0, STATIC_HALF)

    @pytest.mark.parametrize("n_events, n_qubits, name, value", [
        (3, 2.5, "n_qubits", "2.5"), (3, "26", "n_qubits", "'26'"),
        (2.0, 26, "n_events", "2.0")])
    def test_counts_not_integers_refused(self, n_events, n_qubits, name, value):
        # unchecked, a qubit count of 2.5 drew qubits from 0..2
        with pytest.raises(ValueError, match=f"^{name}={value} must be an integer$"):
            sample_schedule(n_events, n_qubits, 0, STATIC_HALF)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed=-1 must be at least 0"), (1.5, "seed=1.5 must be an integer"),
        ("1", "seed='1' must be an integer")])
    def test_bad_seed_refused(self, seed, message):
        # unchecked, numpy raised "expected non-negative integer" for -1 and
        # a TypeError from SeedSequence for 1.5
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_schedule(3, 26, seed, STATIC_HALF)

    def test_numpy_integer_seed_gives_the_same_schedule(self):
        want = sample_schedule(10, 26, 7, STATIC_HALF)
        for seed in (np.int64(7), np.uint16(7)):
            assert sample_schedule(10, 26, seed, STATIC_HALF) == want

    def test_sixty_three_events(self):
        assert len(sample_schedule(MAX_EVENTS, 26, 0, STATIC_HALF).events) == MAX_EVENTS

    @pytest.mark.parametrize("qubit", [1.5, 2.0, "3", None])
    def test_event_qubits_not_integers_refused(self, qubit):
        # unchecked, run() died with a TypeError inside the event loop
        with pytest.raises(ValueError, match=re.escape(
                f"DecayEvent(time=0.5, qubit={qubit!r}): the qubit must be an integer")):
            NoiseSchedule([DecayEvent(0.25, 0), DecayEvent(0.5, qubit)], STATIC_HALF)

    @pytest.mark.parametrize("time", [None, "0.5", 1 + 0j])
    def test_event_times_not_numbers_refused(self, time):
        # unchecked, the time checks raised a raw TypeError
        with pytest.raises(ValueError, match=re.escape(
                f"DecayEvent(time={time!r}, qubit=0): the time must be a real number")):
            NoiseSchedule([DecayEvent(time, 0)], STATIC_HALF)

    def test_numpy_float_times_accepted(self):
        sched = NoiseSchedule([DecayEvent(np.float32(0.5), 0)], STATIC_HALF)
        assert sched.events[0].time == 0.5

    @pytest.mark.parametrize("watchdog", ["off", "on", "strict"])
    def test_numpy_integer_qubits_accepted(self, factoring_15, watchdog):
        # kept as numpy scalars, 1 << np.uint8(9) wrapped to 0 and dropped
        # the decay, and a wide checkpoint mask >> np.uint8(9) overflowed
        _, layout, net = factoring_15
        qubits = [np.int64(3), np.uint8(9), np.int16(12), np.uint8(20)]
        sched = NoiseSchedule([DecayEvent(t, qb) for t, qb in
                               zip((0.2, 0.4, 0.6, 0.8), qubits)], GAMMA)
        assert [type(ev.qubit) for ev in sched.events] == [int] * 4
        assert [ev.qubit for ev in sched.events] == [3, 9, 12, 20]
        _, log = assert_matches_reference(init_state(130, layout), net, sched, watchdog)
        # qubits 12 and 20 are checked at checkpoints before their events
        assert [rec.clock_origin > 0.0 for rec in log] == [False, False, *[
            watchdog != "off"] * 2]

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
