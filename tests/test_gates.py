from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

import shorsim
from shorsim import (ArithParams, DecayEvent, ExperimentConfig, Network, NoiseSchedule,
                     RegisterLayout, SparseState, StaticDecay, apply_decay, apply_network,
                     apply_network_batch, build_adder, build_bit_adder,
                     build_controlled_multiplier, build_mod_adder, concatenate,
                     continued_fraction_order, controlled_swap, distribution_ed,
                     distribution_ned, exhaustive_network_check, extract_factors,
                     fourier_first_register, gate_count_formula, gate_masks,
                     ideal_distribution, init_state, inverse_fourier_first_register,
                     mod_inverse, modpow, multiplicative_order, network_from_text,
                     network_to_text, outcome_table_oracle, outcome_tables,
                     resource_estimate, sample_schedule, validate_network)
from shorsim.gates import (MAX_WIDTH, Checkpoint, _extract, apply_masks, decay_through,
                           mask_bits)
from shorsim.oracles import direct_outcome_table, folded_outcome_table


def random_network(rng, width, n_gates):
    gates = []
    for _ in range(n_gates):
        wires = rng.choice(width, size=rng.integers(1, min(4, width) + 1),
                           replace=False)
        gates.append(gate_masks(wires[1:].tolist(), int(wires[0])))
    return Network(gates, width)


class TestApplyGate:
    def test_both_controls_set_flips_target(self):
        gate = gate_masks({0, 1}, 2)
        assert apply_network(0b011, Network([gate], MAX_WIDTH)) == 0b111

    def test_control_clear_is_identity(self):
        gate = gate_masks({0, 1}, 2)
        assert apply_network(0b010, Network([gate], MAX_WIDTH)) == 0b010

    def test_double_application_is_identity_exhaustive(self):
        net = Network([gate_masks({0, 1}, 2)], MAX_WIDTH)
        for b in range(8):
            assert apply_network(apply_network(b, net), net) == b

    def test_plain_not_and_cnot(self):
        assert apply_network(0b0, Network([gate_masks((), 0)], MAX_WIDTH)) == 0b1
        assert apply_network(0b01, Network([gate_masks({0}, 1)], MAX_WIDTH)) == 0b11

    def test_rejects_target_in_controls(self):
        with pytest.raises(ValueError):
            apply_network(0, Network([gate_masks({0}, 0)], MAX_WIDTH))

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_network(0, Network([gate_masks({5}, 1)], 3))

    def test_touches_only_the_target_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            net = random_network(rng, 6, 1)
            _, target_mask = net.gates[0]
            for b in range(64):
                diff = apply_network(b, net) ^ b
                assert diff in (0, target_mask)


class TestApplyNetwork:
    def test_empty_network_is_identity(self):
        net = Network([], 5)
        for b in range(32):
            assert apply_network(b, net) == b

    def test_gate_twice_is_identity(self):
        gate = gate_masks({0, 2}, 1)
        net = Network([gate, gate], 3)
        for b in range(8):
            assert apply_network(b, net) == b

    @pytest.mark.parametrize("seed", range(5))
    def test_mirror_composition_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        width = 8
        net = random_network(rng, width, 40)
        both = Network([*net.gates, *net.gates[::-1]], width)
        values = np.arange(1 << width)
        assert np.array_equal(apply_network_batch(values, both), values)

    def test_network_is_a_bijection(self):
        rng = np.random.default_rng(3)
        width = 12
        net = random_network(rng, width, 60)
        out = apply_network_batch(np.arange(1 << width), net)
        assert len(np.unique(out)) == 1 << width

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, 7, 30)
        values = np.arange(128)
        batch = apply_network_batch(values, net)
        for b in range(128):
            assert batch[b] == apply_network(b, net)

    def test_rejects_basis_string_too_wide(self):
        with pytest.raises(ValueError):
            apply_network(1 << 4, Network([], 4))

    @pytest.mark.parametrize("values, message", [
        ([3.7], "values must hold integers, not float64"),
        (np.array([1.0, 2.0]), "values must hold integers, not float64"),
        ([True], "values must hold integers, not bool"),
        ([2 ** 70], "values must hold integers, not object"),
        ([-1], "values must hold basis strings in 0..2**62 - 1"),
        ([0, 1 << 62], "values must hold basis strings in 0..2**62 - 1"),
        (np.array([1 << 63], dtype=np.uint64), "values must hold basis strings in 0..2**62 - 1"),
        # unchecked, a 2-D array died with a TypeError from int() of an
        # array, and a scalar with one from len()
        (np.array([[0, 1], [2, 3]]), "values must be a 1-D array, not of shape (2, 2)"),
        (5, "values must be a 1-D array, not of shape ()"),
        (np.array(5), "values must be a 1-D array, not of shape ()")],
        ids=["float", "float-array", "bool", "beyond-int64", "negative", "past-62-bits",
             "uint64-top-bit", "2-d", "scalar", "0-d-array"])
    def test_strings_a_state_refuses_are_refused(self, values, message):
        # unchecked, the cast to int64 ran 3.7 as 3 and gave [1], and the
        # string -1 came out -3
        net = Network([gate_masks([0], 1)], 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_network_batch(values, net)
        assert "masks" not in vars(net)  # refused before the network compiled

    def test_any_integer_strings_pass_and_may_be_wider_than_the_network(self):
        # run() takes a network narrower than its state, and so does the kernel
        net = Network([gate_masks([0], 1)], 2)
        want = np.array([0, 1 << 61 | 3, 2, 1], dtype=np.int64)
        for values in ([0, 1 << 61 | 1, 2, 3], np.array([0, 1 << 61 | 1, 2, 3]),
                       np.array([0, 1 << 61 | 1, 2, 3], dtype=np.uint64)):
            got = apply_network_batch(values, net)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        for dtype in (np.uint8, np.int32):
            got = apply_network_batch(np.arange(4, dtype=dtype), net)
            assert got.tobytes() == apply_network_batch(list(range(4)), net).tobytes()
        empty = apply_network_batch([], net)
        assert empty.dtype == np.int64 and empty.shape == (0,)


def masks_oracle(comp, ctrl, tgt):
    """The gate-by-gate numpy formula, in place: flip each target where every
    control of its gate is set."""
    for c, t in zip(ctrl.tolist(), tgt.tolist()):
        comp ^= ((comp & c) == c) * t


def random_masks(rng, width, count):
    """Control and target mask arrays of ``count`` gates on ``width`` wires:
    targets cycle through every wire from a random start, controls are a
    random 0 to 3 of the other wires, and every fifth gate has none."""
    targets = (rng.integers(width) + np.arange(count)) % width
    ctrl, tgt = [], []
    for g, t in enumerate(targets.tolist()):
        others = np.delete(np.arange(width), t)
        picks = rng.choice(others, size=min(len(others), rng.integers(4)), replace=False)
        ctrl.append(0 if g % 5 == 0 else sum(1 << int(w) for w in picks))
        tgt.append(1 << t)
    return np.array(ctrl, dtype=np.int64), np.array(tgt, dtype=np.int64)


class TestApplyMasks:
    """The bit-plane kernel against the gate-by-gate formula it replaced."""

    @pytest.mark.parametrize("width", [5, 26, 40, 62])
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 540, 3000])
    def test_matches_the_gate_by_gate_formula(self, count, width):
        rng = np.random.default_rng(count * 100 + width)
        # half the strings repeat one of a few, so equal strings meet
        comp = rng.integers(0, 1 << width, count)
        comp[::2] = rng.integers(0, 1 << width, 3)[rng.integers(3, size=len(comp[::2]))]
        ctrl, tgt = random_masks(rng, width, 2 * width + 3)  # every wire a target
        for c, t in ((ctrl, tgt), (ctrl[::-1], tgt[::-1]), (ctrl[:0], tgt[:0])):
            got, want = comp.copy(), comp.copy()
            apply_masks(got, c, t)
            masks_oracle(want, c, t)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_strings_not_int64_refused(self, dtype):
        # read as int64 bytes, int32 strings came back unchanged
        message = f"^basis strings must be int64, not {np.dtype(dtype)}$"
        with pytest.raises(ValueError, match=message):
            apply_masks(np.arange(4, dtype=dtype), np.array([1]), np.array([2]))
        with pytest.raises(ValueError, match=message):
            decay_through(np.arange(4, dtype=dtype), np.array([1]), np.array([2]), 0, print)


class TestDecayThrough:
    """A decay carried back through gates against the gate-by-gate formula:
    the hit mask is the qubit's bit after the gates, and each hit string's
    decayed string is the formula run back over its forward string with
    that bit cleared."""

    @pytest.mark.parametrize("width", [1, 5, 12, 16])
    @pytest.mark.parametrize("count", [0, 1, 9, 40])
    def test_matches_the_gate_by_gate_formula(self, count, width):
        rng = np.random.default_rng(count * 100 + width)
        comp = rng.integers(0, 1 << width, 300)
        comp[::2] = rng.integers(0, 1 << width, 3)[rng.integers(3, size=150)]
        kept = comp.copy()
        ctrl, tgt = random_masks(rng, width, count)
        for c, t in ((ctrl, tgt), (ctrl[::-1], tgt[::-1])):  # forward or reversed
            forward = comp.copy()
            masks_oracle(forward, c, t)
            for qubit in range(width):
                want_hit = (forward >> qubit & 1) == 1
                want = forward[want_hit] ^ (1 << qubit)
                masks_oracle(want, c[::-1], t[::-1])
                counts = []
                hit, decayed = decay_through(comp, c, t, qubit, counts.append)
                assert hit.dtype == bool and hit.tobytes() == want_hit.tobytes()
                assert decayed.dtype == np.int64 and decayed.tobytes() == want.tobytes()
                assert counts == [np.count_nonzero(want_hit)]
                assert comp.tobytes() == kept.tobytes()  # left as it was

    def test_no_strings(self):
        counts = []
        hit, decayed = decay_through(np.zeros(0, np.int64), np.array([0, 1]),
                                     np.array([1, 4]), 2, counts.append)
        assert hit.shape == decayed.shape == (0,) and counts == [0]

    def test_what_the_check_raises_is_raised(self):
        # what the check raises, the primitive raises, the strings untouched
        comp = np.arange(16, dtype=np.int64)

        def refuse(hits):
            raise OverflowError(hits)
        with pytest.raises(OverflowError, match="^8$"):
            decay_through(comp, np.array([0]), np.array([1]), 0, refuse)
        assert np.array_equal(comp, np.arange(16))


class TestValidateNetwork:
    def test_well_formed_adder_has_no_diagnostics(self):
        net = build_adder(5, reg=[0, 1, 2], work=[3, 4, 5, 6], controls=[7])
        assert validate_network(net) == []

    def test_target_equal_control_reported(self):
        net = Network([gate_masks({1}, 1)], 3)
        problems = validate_network(net)
        assert len(problems) == 1 and "control" in problems[0]

    @pytest.mark.parametrize("gate, message", [
        (((), 5), "gate 1: touches qubit 5 outside width 3"),
        (({-1}, 0), "negative qubit index -1")], ids=["gate0", "gate1"])
    def test_gate_problems_use_the_gate_check(self, gate, message):
        # A width problem is the validator's, raised when the network
        # compiles; a negative index is refused when the gate is built.
        with pytest.raises(ValueError) as err:
            apply_network(0, Network([gate_masks((), 0), gate_masks(*gate)], 3))
        assert str(err.value) == message

    def test_checkpoint_beyond_gate_count_reported(self):
        with pytest.raises(ValueError, match="^checkpoint 0: position 5 outside 0..1$"):
            Network([gate_masks((), 0)], 2, [Checkpoint.of(5, {1})])

    def test_decreasing_checkpoints_reported(self):
        # a position below the one before it
        with pytest.raises(ValueError, match=r"^checkpoint 1: position 1 outside 2..3$"):
            Network([gate_masks((), 0)] * 3, 2, [Checkpoint.of(2, {1}), Checkpoint.of(1, {1})])

    def test_layout_mismatch_reported(self):
        layout = RegisterLayout.for_factoring(4, q=130)
        net = Network([], layout.qubit_count + 1)
        assert any("layout" in p for p in validate_network(net, layout))


class TestOneValidator:
    """validate_network and compiling share one check over the mask arrays;
    a network checks its checkpoints when made."""

    @pytest.mark.parametrize("net, message", [
        (Network([(0, 1), (0, 1 << 5)], 3),
         "gate 1: touches qubit 5 outside width 3"),
        (Network([(1 << 70, 1)], 3), "gate 0: touches qubit 70 outside width 3"),
        (Network([(-1, 1)], 3), "gate 0: negative mask"),
        (Network([(0, 0b11)], 3), "gate 0: target mask 0x3 is not one qubit"),
        (Network([(0b1, 0)], 3), "gate 0: target mask 0x0 is not one qubit"),
        (Network([gate_masks({0, 1}, 1)], 3), "gate 0: target 1 is also a control"),
        (Network([], 63), "networks wider than 62 qubits are not supported"),
        (Network([gate_masks([], 17), gate_masks(range(1, 17), 0)], 18),
         "gate 1: touches 17 wires; a fused block holds at most 16"),
        (Network([gate_masks(range(1, 16), 0), (0, 1 << 20)], 18),
         "gate 1: touches qubit 20 outside width 18"),
        # gates that are not pairs of integers: a third mask, a float or a
        # digit string must not run as a truncated or parsed pair
        (Network([(1, 2, 3)], 4), "gate 0: (1, 2, 3) is not a (control mask, target mask) pair"),
        (Network([(0, 1), (2,)], 4), "gate 1: (2,) is not a (control mask, target mask) pair"),
        (Network([None], 4), "gate 0: None is not a (control mask, target mask) pair"),
        (Network([(2.5, 4)], 4), "gate 0: the control mask must be an integer"),
        (Network([("1", 2)], 4), "gate 0: the control mask must be an integer"),
        (Network([(0, 1), (1 << 70, 2.0)], 4), "gate 1: the target mask must be an integer"),
    ], ids=["wide", "beyond-int64", "negative", "two-targets", "no-target",
            "target-control", "width", "seventeen-wires", "sixteen-wires-pass",
            "three-masks", "one-mask", "none", "float-mask", "string-mask",
            "float-beside-beyond-int64"])
    def test_compiling_raises_the_first_reported_problem(self, net, message):
        assert validate_network(net) == [message]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            net.masks
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_network_batch([0], net)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            network_to_text(net)
        assert "masks" not in vars(net)

    @pytest.mark.parametrize("gates, width, checkpoints, message", [
        ([(0, 1)], 2, [Checkpoint(-1, 0b1)], "checkpoint 0: position -1 outside 0..1"),
        ([(0, 1)] * 3, 2, [Checkpoint(2, 0b10), Checkpoint(1, 0b10)],
         "checkpoint 1: position 1 outside 2..3"),
        ([(0, 1)], 2, [Checkpoint(1, 0b100)], "checkpoint 0: qubit 2 outside width 2"),
        ([(0, 1)], 2, [Checkpoint(1, 1 << 70 | 0b1001)],
         "checkpoint 0: qubit 3 outside width 2"),
        ([(0, 1)], 2, [Checkpoint(1, -1)], "checkpoint 0: negative mask"),
        # the first bad checkpoint, its position checked before its mask
        ([(0, 1)], 2, [Checkpoint(1, 0b1), Checkpoint(2, -1), Checkpoint(0, 0b100)],
         "checkpoint 1: position 2 outside 1..1"),
    ], ids=["chk-negative", "chk-decreasing", "chk-qubit", "chk-lowest-qubit-beyond-int64",
            "chk-negative-mask", "chk-first-problem"])
    def test_checkpoint_refused_when_made(self, gates, width, checkpoints, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Network(gates, width, checkpoints)

    def test_negative_width_refused_when_made(self):
        # unchecked, this network validated as [] and compiled, and a rerun
        # died in FusedBlock.apply unpacking a block with no gather
        with pytest.raises(ValueError, match="^qubit_count -3 is negative$"):
            Network([gate_masks([0], 1)], -3)
        with pytest.raises(ValueError, match="^qubit_count -1 is negative$"):
            concatenate([], -1)
        assert Network([], 0).qubit_count == 0

    def test_checkpoint_not_of_integers_refused_when_made(self):
        # unchecked, a float position passed and a strict run() died slicing
        # the masks, a float mask raised a TypeError from >>, and a numpy
        # mask beyond the width raised an AttributeError from bit_length
        gates = [(0, 1)] * 3
        for checkpoint, message in (
                (Checkpoint(1.5, 1), "checkpoint 0: the position must be an integer"),
                (Checkpoint(1, 1.5), "checkpoint 0: the mask must be an integer"),
                (Checkpoint(1, np.int64(4)), "checkpoint 0: qubit 2 outside width 2")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Network(gates, 2, [checkpoint])
        # numpy integers within the width become ints: the same network bytes
        net = Network(gates, 3, [Checkpoint(np.uint8(1), np.int64(4))])
        assert net.checkpoints == (Checkpoint(1, 4),)
        assert [type(v) for v in net.checkpoints[0]] == [int, int]
        assert network_to_text(net) == network_to_text(Network(gates, 3, [Checkpoint(1, 4)]))

    def test_concatenation_narrower_than_a_checkpoint_refused(self):
        # the text parser's refusal is TestRunBoundary's
        part = Network([(0, 1)], 3, [Checkpoint(1, 0b100)])
        assert concatenate([part, part]).checkpoints == (Checkpoint(1, 4), Checkpoint(2, 4))
        with pytest.raises(ValueError, match=r"^checkpoint 0: qubit 2 outside width 2$"):
            concatenate([part], 2)

    def test_every_bad_gate_reported_in_order(self):
        net = Network([gate_masks({2}, 2), (0, 1), (0, 1 << 4),
                       (0, 0b101)], 3)
        assert validate_network(net) == [
            "gate 0: target 2 is also a control",
            "gate 2: touches qubit 4 outside width 3",
            "gate 3: target mask 0x5 is not one qubit"]

    def test_a_wide_gate_reports_its_other_problem_first(self):
        # one problem per gate: the wire count is the last one checked
        wide = (1 << 18) - 2
        net = Network([(wide, 1 << 20), (wide, 1 << 5), (wide | 1, 1), (wide, 1)], 20)
        assert validate_network(net) == [
            "gate 0: touches qubit 20 outside width 20",
            "gate 1: target 5 is also a control",
            "gate 2: target 0 is also a control",
            "gate 3: touches 18 wires; a fused block holds at most 16"]

    def test_index_path_builds_the_masks(self):
        gate = gate_masks([3, 0, 3], 1)
        assert gate == (0b1001, 0b10)
        assert type(gate) is tuple and all(type(m) is int for m in gate)
        with pytest.raises(ValueError, match="negative qubit index -2"):
            gate_masks([1], -2)

    def test_checkpoint_index_path_builds_the_mask(self):
        chk = Checkpoint.of(4, [3, 0, 3])
        assert chk == Checkpoint(4, 0b1001)
        assert chk.qubits == (0, 3)
        with pytest.raises(ValueError, match="^negative qubit index -1$"):
            Checkpoint.of(4, [0, -1])


FACTORING = RegisterLayout.for_factoring(4, q=130)


def first_state():
    return init_state(130, FACTORING)


def first_state_arrays():
    state = first_state()
    return state.comp, state.env, state.amp


# One row set over shorsim's exports (``test_every_export_has_rows_or_an_
# exemption``): the export, a call refusing a non-integer, and the message.
NON_INTEGER_ROWS = [
    # unchecked, int() truncated these three: width 2, position 1, and the
    # string 1.5 ran as 1 and came out 0; the indices raised a raw TypeError
    # from <<
    pytest.param(Network, lambda: Network([(0, 1)], 2.5),
                 "qubit_count=2.5 must be an integer", id="width"),
    pytest.param(Checkpoint, lambda: Checkpoint.of(1.5, [0]),
                 "position=1.5 must be an integer", id="checkpoint-position"),
    pytest.param(apply_network, lambda: apply_network(1.5, Network([(0, 1)], 1)),
                 "bits=1.5 must be an integer", id="basis-string"),
    pytest.param(gate_masks, lambda: gate_masks([1.0], 0),
                 "control=1.0 must be an integer", id="gate-control"),
    pytest.param(gate_masks, lambda: gate_masks([1], 0.0),
                 "target=0.0 must be an integer", id="gate-target"),
    pytest.param(Checkpoint, lambda: Checkpoint.of(1, [1.5]),
                 "qubit=1.5 must be an integer", id="checkpoint-qubit"),
    # unchecked, apply_network_batch ran the string 3.7 as 3, and a float
    # flag made a layout
    pytest.param(apply_network_batch, lambda: apply_network_batch([3.7], Network([], 2)),
                 "values must hold integers, not float64", id="batch-strings"),
    pytest.param(RegisterLayout, lambda: dataclasses.replace(FACTORING, modn_flag=24.0),
                 "modn_flag=24.0 must be an integer", id="layout-flag"),
    pytest.param(network_from_text, lambda: network_from_text("T 0\n", 2.5),
                 "qubit_count=2.5 must be an integer", id="text-width"),
    pytest.param(concatenate, lambda: concatenate([], 2.5),
                 "qubit_count=2.5 must be an integer", id="concatenate-width"),
    # unchecked, pow(), range() or numpy raised a TypeError
    pytest.param(modpow, lambda: modpow(7, 2.5, 15), "a=2.5 must be an integer",
                 id="modpow-exponent"),
    pytest.param(modpow, lambda: modpow(7.0, 2, 15), "x=7.0 must be an integer",
                 id="modpow-base"),
    pytest.param(multiplicative_order, lambda: multiplicative_order(7, 15.0),
                 "n=15.0 must be an integer", id="multiplicative_order"),
    pytest.param(direct_outcome_table, lambda: direct_outcome_table(15, 7, 130.0),
                 "q=130.0 must be an integer", id="direct_outcome_table"),
    pytest.param(folded_outcome_table, lambda: folded_outcome_table(15, 7, 130.0),
                 "q=130.0 must be an integer", id="folded_outcome_table"),
    pytest.param(outcome_table_oracle, lambda: outcome_table_oracle(15, 7, 130.0),
                 "q=130.0 must be an integer", id="outcome_table_oracle"),
    pytest.param(ideal_distribution, lambda: ideal_distribution(15, 7, 130.5),
                 "q=130.5 must be an integer", id="ideal_distribution"),
    pytest.param(continued_fraction_order, lambda: continued_fraction_order(65.5, 130, 15, 7),
                 "c=65.5 must be an integer", id="continued_fraction_order"),
    pytest.param(extract_factors, lambda: extract_factors(7, 4.0, 15),
                 "r=4.0 must be an integer", id="extract_factors"),
    # refused at their boundary before this table covered them
    pytest.param(ArithParams, lambda: ArithParams.create(15.0, 7, 130),
                 "n=15.0 must be an integer", id="arith-params"),
    pytest.param(ExperimentConfig, lambda: ExperimentConfig(q=130.5),
                 "q=130.5 must be an integer", id="experiment-config"),
    pytest.param(NoiseSchedule, lambda: NoiseSchedule([DecayEvent(0.5, 1.5)], StaticDecay(0.5)),
                 "DecayEvent(time=0.5, qubit=1.5): the qubit must be an integer",
                 id="schedule-qubit"),
    pytest.param(sample_schedule, lambda: sample_schedule(2.0, 26, 0, StaticDecay(0.5)),
                 "n_events=2.0 must be an integer", id="sample-schedule"),
    pytest.param(apply_decay, lambda: apply_decay(first_state(), 1.5, 0.5),
                 "qubit=1.5 must be an integer", id="apply-decay"),
    pytest.param(init_state, lambda: init_state(130.5, FACTORING),
                 "q=130.5 must be an integer", id="init-state"),
    pytest.param(fourier_first_register,
                 lambda: fourier_first_register(first_state(), 130.0, FACTORING),
                 "q=130.0 must be an integer", id="fourier"),
    pytest.param(inverse_fourier_first_register,
                 lambda: inverse_fourier_first_register(first_state(), 130.0, FACTORING),
                 "q=130.0 must be an integer", id="inverse-fourier"),
    pytest.param(distribution_ned, lambda: distribution_ned(first_state(), FACTORING, 130.0),
                 "q=130.0 must be an integer", id="ned"),
    pytest.param(distribution_ed, lambda: distribution_ed(first_state(), FACTORING, 130.0),
                 "q=130.0 must be an integer", id="ed"),
    pytest.param(outcome_tables, lambda: outcome_tables(first_state(), FACTORING, 130.0),
                 "q=130.0 must be an integer", id="outcome-tables"),
    pytest.param(resource_estimate, lambda: resource_estimate(2.5),
                 "bits=2.5 must be an integer", id="resource-estimate"),
    # unchecked, the domain value 1.5 was checked as 1, the wire 1.5 raised a
    # raw TypeError from <<, the formula returned 7230.0, the width 2.5 raised
    # a raw TypeError from >> and the record count 1.5 made a state
    pytest.param(exhaustive_network_check,
                 lambda: exhaustive_network_check(Network([], 2), int, [1.5], [0, 1]),
                 "value=1.5 must be an integer", id="exhaustive-check-domain"),
    pytest.param(exhaustive_network_check,
                 lambda: exhaustive_network_check(Network([], 2), int, [1], [0, 1.5]),
                 "wire=1.5 must be an integer", id="exhaustive-check-wire"),
    pytest.param(gate_count_formula, lambda: gate_count_formula(2.5),
                 "bits=2.5 must be an integer", id="gate-count-formula"),
    pytest.param(SparseState, lambda: SparseState(2.5, 0, *first_state_arrays()),
                 "qubit_count=2.5 must be an integer", id="state-width"),
    pytest.param(SparseState, lambda: SparseState(FACTORING.qubit_count, 1.5,
                                                  *first_state_arrays()),
                 "env_count=1.5 must be an integer", id="state-env-count"),
    # unchecked, << raised a raw TypeError on the wire 1.5, the control 1.5
    # and the constant 5.0, n.bit_length() an AttributeError, math.gcd(),
    # pow() and range() a TypeError, and (q - 1).bit_length() an AttributeError
    pytest.param(build_bit_adder, lambda: build_bit_adder(1, [], 0, 1.5, 2),
                 "keep_wire=1.5 must be an integer", id="bit-adder-wire"),
    pytest.param(controlled_swap, lambda: controlled_swap([1.5], 2, 3),
                 "qubit=1.5 must be an integer", id="swap-control"),
    pytest.param(build_adder, lambda: build_adder(5.0, [0, 1, 2], [3, 4, 5, 6]),
                 "y=5.0 must be an integer", id="adder-constant"),
    pytest.param(build_mod_adder,
                 lambda: build_mod_adder(7, 15.0, [0, 1, 2, 3], 4, 5, range(6, 13)),
                 "n=15.0 must be an integer", id="mod-adder-modulus"),
    pytest.param(build_controlled_multiplier,
                 lambda: build_controlled_multiplier(7.0, 15, [0, 1, 2, 3], [4, 5, 6, 7],
                                                     8, 9, range(10, 17)),
                 "c=7.0 must be an integer", id="multiplier-factor"),
    pytest.param(mod_inverse, lambda: mod_inverse(7.0, 15), "c=7.0 must be an integer",
                 id="mod-inverse"),
    pytest.param(RegisterLayout, lambda: RegisterLayout.for_factoring(2.5),
                 "bits=2.5 must be an integer", id="layout-bits"),
    pytest.param(RegisterLayout, lambda: RegisterLayout.for_factoring(4, q=130.0),
                 "q=130.0 must be an integer", id="layout-q"),
]

# Exports without rows, each with its reason.
EXEMPT = {
    "DecayEvent": "a plain record; NoiseSchedule refuses its qubit (row schedule-qubit)",
    "Distribution": "a result record of a table and a variant name",
    "FactorReport": "a result record; run_experiment fills it from an ExperimentConfig",
    "ResourceReport": "a result record; resource_estimate fills it",
    "StaticDecay": "takes a real number, refused in test_simulator.py's TestDecayLaws",
    "ExponentialDecay": "takes a real number, refused in test_simulator.py's TestDecayLaws",
    "build_modexp": "takes an ArithParams and a RegisterLayout, both checked when made",
    "dump_state": "takes a SparseState only",
    "event_records": "takes a Network, a NoiseSchedule and a mode name",
    "run": "takes a SparseState, a Network, a NoiseSchedule and a mode name",
    "run_experiment": "takes an ExperimentConfig, checked when made",
    "network_to_text": "takes a Network only",
    "validate_network": "takes a Network and a RegisterLayout, no integer",
}


class TestIntegerArguments:
    """A width, a checkpoint position and a basis string are integers:
    numpy integers pass as Python ints, anything else is a ValueError."""

    @pytest.mark.parametrize("export, make, message", NON_INTEGER_ROWS)
    def test_non_integer_refused(self, export, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_every_export_has_rows_or_an_exemption(self):
        # so that the next export cannot skip the rule
        exports = {name for name in shorsim.__all__ if callable(getattr(shorsim, name))}
        covered = {row.values[0].__name__ for row in NON_INTEGER_ROWS} & exports
        assert not covered & set(EXEMPT), covered & set(EXEMPT)
        assert exports - covered == set(EXEMPT)
        assert all(EXEMPT.values())

    def test_numpy_integers_pass_the_oracles_and_pipeline_helpers(self):
        # unchecked, n.bit_length() raised an AttributeError on np.int64
        i = np.int64
        assert modpow(i(7), np.uint8(4), np.int32(15)) == 1
        assert multiplicative_order(i(7), i(15)) == 4
        for table in (direct_outcome_table, folded_outcome_table, outcome_table_oracle):
            assert table(i(15), i(7), i(64)).tobytes() == table(15, 7, 64).tobytes()
        assert (ideal_distribution(i(15), i(7), i(130)).table.tobytes()
                == ideal_distribution(15, 7, 130).table.tobytes())
        assert (continued_fraction_order(i(65), i(130), i(15), i(7))
                == continued_fraction_order(65, 130, 15, 7) == (4, [(0, 1), (1, 2)]))
        assert extract_factors(i(7), i(4), i(15)) == ({3, 5}, None)

    def test_numpy_integers_pass_as_ints(self):
        net = Network([(0, 1)], np.int64(1))
        chk = Checkpoint.of(np.uint8(1), [0])
        assert type(net.qubit_count) is int and net.qubit_count == 1
        assert type(chk.position) is int and chk.position == 1
        assert apply_network(np.int64(1), net) == 0
        state = SparseState(np.int64(FACTORING.qubit_count), np.uint8(0), *first_state_arrays())
        assert type(state.qubit_count) is int and type(state.env_count) is int
        assert type(gate_count_formula(np.int64(4))) is int
        assert exhaustive_network_check(net, lambda v: v ^ 1, np.arange(2), [np.int64(0)]) == []

    def test_numpy_integers_pass_the_builders(self):
        # unchecked, the builders' masks were numpy integers, which
        # network_to_text refused, and for_factoring's q had no bit_length
        i = np.int64
        assert RegisterLayout.for_factoring(i(4), q=i(130)) == FACTORING
        for make in (lambda w, k: build_adder(k(5), w[:3], w[3:7], w[7:8]),
                     lambda w, k: build_mod_adder(k(7), k(15), w[:4], w[4], w[5], w[6:13],
                                                  w[13:14]),
                     lambda w, k: build_controlled_multiplier(k(7), k(15), w[:4], w[4:8],
                                                              w[8], w[9], w[10:17])):
            net, want = make([i(w) for w in range(17)], i), make(list(range(17)), int)
            assert network_to_text(net) == network_to_text(want)
            assert all(type(m) is int for gate in net.gates for m in gate)
        assert build_bit_adder(i(1), [i(0)], i(1), i(2), i(3)) == build_bit_adder(1, [0], 1, 2, 3)
        assert controlled_swap([i(0)], i(1), i(2)) == controlled_swap([0], 1, 2)
        assert mod_inverse(i(7), i(15)) == 13

    def test_gates_and_checkpoints_from_numpy_indices_hold_ints(self):
        # unchecked, the masks were numpy integers, and network_to_text died
        # on np.int64's missing bit_length
        gate = gate_masks([np.int64(1), np.uint8(2)], np.int64(0))
        chk = Checkpoint.of(1, [np.int64(2)])
        assert gate == (0b110, 0b1) and chk == Checkpoint(1, 0b100)
        assert [type(m) for m in (*gate, chk.mask)] == [int] * 3
        net = Network([gate], 3, [chk])
        text = network_to_text(net)
        assert text == "T 0 1 2\nCHK 1 2\n"
        back = network_from_text(text, qubit_count=3)
        assert (back.gates, back.checkpoints) == (net.gates, net.checkpoints)


class TestLayout:
    def test_factoring_layout_is_disjoint_and_contiguous(self):
        layout = RegisterLayout.for_factoring(4, q=130)  # checked when made
        roles = [*layout.reg1, *layout.reg2, *layout.work_qubits]
        assert sorted(roles) == list(range(layout.qubit_count))
        assert layout.qubit_count == 26  # 8 + 4 + 5 + 7 + 1 + 1
        assert len(layout.reg1) == 8  # 129 needs 8 bits

    @pytest.mark.parametrize("bits", range(1, 12))
    def test_every_factoring_layout_is_made(self, bits):
        for q in (None, 2, 1 << bits, 2 << (2 * bits)):
            layout = RegisterLayout.for_factoring(bits, q=q)
            assert layout.qubit_count == layout.swap_ancilla + 1

    @pytest.mark.parametrize("change, message", [
        ({"reg2": range(4, 8)}, "reg2 overlaps reg1 at qubit 4"),
        ({"add_work": range(16, 23)}, "add_work overlaps mult_work at qubit 16"),
        ({"modn_flag": 3}, "modn_flag overlaps reg1 at qubit 3"),
        ({"swap_ancilla": 24}, "swap_ancilla overlaps modn_flag at qubit 24"),
        ({"swap_ancilla": 26}, "layout does not cover a contiguous index range"),
        ({"reg1": range(1, 8)}, "layout does not cover a contiguous index range")],
        ids=["registers", "scratch", "flag", "ancilla", "gap-at-the-top", "gap-at-0"])
    def test_bad_layout_refused_when_made(self, change, message):
        # unchecked, build_modexp built a 17,051-gate network on reg2 =
        # range(4, 8) inside reg1 and run() ran it
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(RegisterLayout.for_factoring(4, q=130), **change)

    def test_wide_register_default(self):
        layout = RegisterLayout.for_factoring(4)
        assert len(layout.reg1) == 9
        assert layout.qubit_count == 27


class TestMaskBits:
    @staticmethod
    def naive(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    def test_equals_the_naive_definition(self):
        rng = np.random.default_rng(62)
        masks = [0, 1 << 61, (1 << 62) - 1, *rng.integers(0, 1 << 62, 1000).tolist()]
        for mask in masks:
            assert mask_bits(mask) == self.naive(mask), mask

    @pytest.mark.parametrize("mask", [-1, -(1 << 61), -6])
    def test_negative_mask_refused(self, mask):
        with pytest.raises(ValueError, match=f"^mask {mask} is negative$"):
            mask_bits(mask)


class TestSerialization:
    def test_round_trip(self):
        net = Network([gate_masks({1, 2}, 0), gate_masks((), 3)], 5,
                      [Checkpoint.of(1, {3, 4}), Checkpoint.of(2, {4})])
        back = network_from_text(network_to_text(net), qubit_count=5)
        assert back.gates == net.gates
        assert back.checkpoints == net.checkpoints
        assert back.qubit_count == 5

    def test_text_is_deterministic(self):
        net = Network([gate_masks({3, 1, 2}, 0)], 4)
        assert network_to_text(net) == network_to_text(net)
        assert network_to_text(net) == "T 0 1 2 3\n"

    def test_width_inferred_when_missing(self):
        net = network_from_text("T 2 0\nCHK 1 4\n")
        assert net.qubit_count == 5

    def test_checkpoint_line_reads_into_a_mask(self):
        net = network_from_text("T 2 0\nCHK 1 4 1 4\n")
        assert net.checkpoints == (Checkpoint(1, 0b10010),)

    def test_unknown_record_rejected(self):
        with pytest.raises(ValueError):
            network_from_text("X 1 2\n")

    @pytest.mark.parametrize("text, message", [
        ("T a\n", "line 1: invalid literal for int() with base 10: 'a'"),
        ("T 0\nT 1 -2\n", "line 2: negative qubit index -2"),
        ("T 0\n\nCHK 1 x\n", "line 3: invalid literal for int() with base 10: 'x'"),
        ("CHK 0 -1\n", "line 1: negative qubit index -1"),
    ], ids=["gate-literal", "gate-negative", "chk-literal", "chk-negative"])
    def test_bad_index_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            network_from_text(text)


def test_concatenate_shifts_checkpoints():
    a = Network([gate_masks((), 0)] * 2, 3, [Checkpoint.of(2, {1})])
    b = Network([gate_masks((), 1)], 3, [Checkpoint.of(0, {2}), Checkpoint.of(1, {2})])
    merged = concatenate([a, b])
    assert merged.checkpoints == (Checkpoint(2, 0b10), Checkpoint(2, 0b100),
                                  Checkpoint(3, 0b100))
    assert len(merged.gates) == 3


def test_concatenate_nothing_is_the_empty_network():
    # unchecked, max() of no widths raised
    assert concatenate([]) == Network([], 0)
    assert concatenate([], 4) == Network([], 4)


def extract_reference(value, mask):
    """The bits of value at the set bits of mask, packed low, bit by bit."""
    out = rank = 0
    for bit in range(mask.bit_length()):
        if mask >> bit & 1:
            out |= (value >> bit & 1) << rank
            rank += 1
    return out


class TestExtract:
    @pytest.mark.parametrize("width", [1, 5, 8, 13, 21, 35, 57, 62])
    def test_matches_the_per_bit_reference(self, width):
        rng = np.random.default_rng(width)
        values = rng.integers(0, 1 << width, 400)
        # dense and sparse masks, then empty, full and top-bit-only ones
        masks = rng.integers(0, 1 << width, 400)
        masks[200:] &= rng.integers(0, 1 << width, 200) & rng.integers(0, 1 << width, 200)
        masks[:3] = [0, (1 << width) - 1, 1 << (width - 1)]
        got = _extract(values, masks, width)
        assert got.dtype == np.int64
        assert got.tolist() == [extract_reference(v, m)
                                for v, m in zip(values.tolist(), masks.tolist())]
        assert not _extract(values, np.zeros_like(masks), width).any()

    def test_every_byte_pair_and_broadcast_rows(self):
        values, masks = np.arange(256)[None, :], np.arange(256)[:, None]
        want = [[extract_reference(v, m) for v in range(256)] for m in range(256)]
        assert _extract(values, masks, 8).tolist() == want
        # one mask row against stacked value rows, as fused blocks call it
        rng = np.random.default_rng(2)
        stacked = rng.integers(0, 1 << 62, (2, 50))
        mask = rng.integers(0, 1 << 62, 50)
        assert _extract(stacked, mask, 62).tolist() == [
            [extract_reference(v, m) for v, m in zip(row, mask.tolist())]
            for row in stacked.tolist()]
