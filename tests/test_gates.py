from __future__ import annotations

import numpy as np
import pytest

from shorsim import (Gate, Network, RegisterLayout, apply_gate, apply_network,
                     apply_network_batch, build_adder, concatenate,
                     network_from_text, network_to_text, validate_network)
from shorsim.gates import Checkpoint


def random_network(rng, width, n_gates):
    gates = []
    for _ in range(n_gates):
        wires = rng.choice(width, size=rng.integers(1, min(4, width) + 1),
                           replace=False)
        gates.append(Gate(wires[1:].tolist(), int(wires[0])))
    return Network(gates, width)


class TestApplyGate:
    def test_both_controls_set_flips_target(self):
        gate = Gate({0, 1}, 2)
        assert apply_gate(0b011, gate) == 0b111

    def test_control_clear_is_identity(self):
        gate = Gate({0, 1}, 2)
        assert apply_gate(0b010, gate) == 0b010

    def test_double_application_is_identity_exhaustive(self):
        gate = Gate({0, 1}, 2)
        for b in range(8):
            assert apply_gate(apply_gate(b, gate), gate) == b

    def test_plain_not_and_cnot(self):
        assert apply_gate(0b0, Gate((), 0)) == 0b1
        assert apply_gate(0b01, Gate({0}, 1)) == 0b11

    def test_rejects_target_in_controls(self):
        with pytest.raises(ValueError):
            apply_gate(0, Gate({0}, 0))

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(0, Gate({5}, 1), width=3)

    def test_touches_only_the_target_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            net = random_network(rng, 6, 1)
            gate = net.gates[0]
            for b in range(64):
                diff = apply_gate(b, gate) ^ b
                assert diff in (0, gate.target_mask)


class TestApplyNetwork:
    def test_empty_network_is_identity(self):
        net = Network([], 5)
        for b in range(32):
            assert apply_network(b, net) == b

    def test_gate_twice_is_identity(self):
        gate = Gate({0, 2}, 1)
        net = Network([gate, gate], 3)
        for b in range(8):
            assert apply_network(b, net) == b

    @pytest.mark.parametrize("seed", range(5))
    def test_mirror_composition_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        width = 8
        net = random_network(rng, width, 40)
        both = Network([*net.gates, *net.reversed().gates], width)
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


class TestValidateNetwork:
    def test_well_formed_adder_has_no_diagnostics(self):
        net = build_adder(5, reg=[0, 1, 2], work=[3, 4, 5, 6], controls=[7])
        assert validate_network(net) == []

    def test_target_equal_control_reported(self):
        net = Network([Gate({1}, 1)], 3)
        problems = validate_network(net)
        assert len(problems) == 1 and "control" in problems[0]

    @pytest.mark.parametrize("gate", [Gate((), 5), Gate({-1}, 0)])
    def test_gate_problems_use_the_gate_check(self, gate):
        net = Network([Gate((), 0), gate], 3)
        with pytest.raises(ValueError) as err:
            apply_network(0, net)
        assert validate_network(net) == [f"gate 1: {err.value}"]

    def test_checkpoint_beyond_gate_count_reported(self):
        net = Network([Gate((), 0)], 2, [Checkpoint(5, {1})])
        problems = validate_network(net)
        assert len(problems) == 1 and "beyond" in problems[0]

    def test_decreasing_checkpoints_reported(self):
        net = Network([Gate((), 0)] * 3, 2,
                      [Checkpoint(2, {1}), Checkpoint(1, {1})])
        assert any("decreases" in p for p in validate_network(net))

    def test_layout_mismatch_reported(self):
        layout = RegisterLayout.for_factoring(4, q=130)
        net = Network([], layout.qubit_count + 1)
        assert any("layout" in p for p in validate_network(net, layout))


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
        net = Network([Gate({1, 2}, 0), Gate((), 3)], 5,
                      [Checkpoint(1, {3, 4}), Checkpoint(2, {4})])
        back = network_from_text(network_to_text(net), qubit_count=5)
        assert back.gates == net.gates
        assert back.checkpoints == net.checkpoints
        assert back.qubit_count == 5

    def test_text_is_deterministic(self):
        net = Network([Gate({3, 1, 2}, 0)], 4)
        assert network_to_text(net) == network_to_text(net)
        assert network_to_text(net) == "T 0 1 2 3\n"

    def test_width_inferred_when_missing(self):
        net = network_from_text("T 2 0\nCHK 1 4\n")
        assert net.qubit_count == 5

    def test_unknown_record_rejected(self):
        with pytest.raises(ValueError):
            network_from_text("X 1 2\n")


def test_concatenate_shifts_checkpoints():
    a = Network([Gate((), 0)] * 2, 3, [Checkpoint(2, {1})])
    b = Network([Gate((), 1)], 3, [Checkpoint(0, {2}), Checkpoint(1, {2})])
    merged = concatenate([a, b])
    assert [c.position for c in merged.checkpoints] == [2, 2, 3]
    assert len(merged.gates) == 3
