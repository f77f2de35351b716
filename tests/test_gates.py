from __future__ import annotations

import re

import numpy as np
import pytest

from shorsim import (Network, RegisterLayout, apply_network, apply_network_batch,
                     build_adder, concatenate, gate_masks, network_from_text,
                     network_to_text, validate_network)
from shorsim.gates import MAX_WIDTH, Checkpoint, _extract, apply_masks


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
        with pytest.raises(ValueError, match=f"^basis strings must be int64, not "
                                             f"{np.dtype(dtype)}$"):
            apply_masks(np.arange(4, dtype=dtype), np.array([1]), np.array([2]))


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
        net = Network([gate_masks((), 0)], 2, [Checkpoint.of(5, {1})])
        assert validate_network(net) == ["checkpoint 0: position 5 outside 0..1"]

    def test_decreasing_checkpoints_reported(self):
        net = Network([gate_masks((), 0)] * 3, 2,
                      [Checkpoint.of(2, {1}), Checkpoint.of(1, {1})])
        # a position below the one before it
        assert validate_network(net) == ["checkpoint 1: position 1 outside 2..3"]

    def test_layout_mismatch_reported(self):
        layout = RegisterLayout.for_factoring(4, q=130)
        net = Network([], layout.qubit_count + 1)
        assert any("layout" in p for p in validate_network(net, layout))


class TestOneValidator:
    """validate_network and compiling share one check over the mask arrays."""

    @pytest.mark.parametrize("net, message", [
        (Network([(0, 1), (0, 1 << 5)], 3),
         "gate 1: touches qubit 5 outside width 3"),
        (Network([(1 << 70, 1)], 3), "gate 0: touches qubit 70 outside width 3"),
        (Network([(-1, 1)], 3), "gate 0: negative mask"),
        (Network([(0, 0b11)], 3), "gate 0: target mask 0x3 is not one qubit"),
        (Network([(0b1, 0)], 3), "gate 0: target mask 0x0 is not one qubit"),
        (Network([gate_masks({0, 1}, 1)], 3), "gate 0: target 1 is also a control"),
        (Network([], 63), "networks wider than 62 qubits are not supported"),
        (Network([(0, 1)], 2, [Checkpoint(-1, 0b1)]),
         "checkpoint 0: position -1 outside 0..1"),
        (Network([(0, 1)] * 3, 2, [Checkpoint(2, 0b10), Checkpoint(1, 0b10)]),
         "checkpoint 1: position 1 outside 2..3"),
        (Network([(0, 1)], 2, [Checkpoint(1, 0b100)]),
         "checkpoint 0: qubit 2 outside width 2"),
        (Network([(0, 1)], 2, [Checkpoint(1, 1 << 70 | 0b1001)]),
         "checkpoint 0: qubit 3 outside width 2"),
        (Network([(0, 1)], 2, [Checkpoint(1, -1)]),
         "checkpoint 0: negative mask"),
    ], ids=["wide", "beyond-int64", "negative", "two-targets", "no-target",
            "target-control", "width", "chk-negative", "chk-decreasing",
            "chk-qubit", "chk-lowest-qubit-beyond-int64", "chk-negative-mask"])
    def test_compiling_raises_the_first_reported_problem(self, net, message):
        assert validate_network(net) == [message]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            net.masks
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_network_batch([0], net)
        assert "masks" not in vars(net)

    def test_every_bad_gate_reported_in_order(self):
        net = Network([gate_masks({2}, 2), (0, 1), (0, 1 << 4),
                       (0, 0b101)], 3)
        assert validate_network(net) == [
            "gate 0: target 2 is also a control",
            "gate 2: touches qubit 4 outside width 3",
            "gate 3: target mask 0x5 is not one qubit"]

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


class TestLayout:
    def test_factoring_layout_is_disjoint_and_contiguous(self):
        layout = RegisterLayout.for_factoring(4, q=130)
        assert layout.validate() == []
        assert layout.qubit_count == 26  # 8 + 4 + 5 + 7 + 1 + 1
        assert len(layout.reg1) == 8  # 129 needs 8 bits

    def test_wide_register_default(self):
        layout = RegisterLayout.for_factoring(4)
        assert len(layout.reg1) == 9
        assert layout.qubit_count == 27


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
