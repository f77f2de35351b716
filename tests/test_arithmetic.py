from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from shorsim import (ArithParams, RegisterLayout, apply_network,
                     apply_network_batch, build_adder, build_bit_adder,
                     build_controlled_multiplier, build_mod_adder,
                     build_modexp, controlled_swap, gate_count_formula, mod_inverse,
                     network_to_text, resource_estimate, validate_network)
from shorsim.arithmetic import ConfigError
from shorsim.gates import Checkpoint, Network, qubit_mask
from shorsim.oracles import exhaustive_network_check


class TestModInverse:
    def test_identity(self):
        assert mod_inverse(1, 15) == 1

    def test_brute_force_agreement(self):
        # frozen: 7 * 13 = 91 = 6*15 + 1, and 4 * 4 = 16 = 15 + 1
        assert mod_inverse(7, 15) == 13
        assert mod_inverse(4, 15) == 4
        for n in (15, 21, 33):
            for c in range(1, n):
                if math.gcd(c, n) != 1:
                    continue
                inv = mod_inverse(c, n)
                assert 0 < inv < n and c * inv % n == 1
                assert inv == next(k for k in range(1, n) if c * k % n == 1)

    def test_shared_factor_is_an_error(self):
        with pytest.raises(ValueError, match="factor"):
            mod_inverse(5, 15)


class TestBitAdder:
    def wires(self):
        return dict(controls=[0], sum_wire=1, keep_wire=2, carry_wire=3)

    def run(self, const_bit, ctl, i1, i2):
        net = Network(build_bit_adder(const_bit, **self.wires()), 4)
        out = apply_network(ctl | (i1 << 1) | (i2 << 2), net)
        return (out >> 1) & 1, (out >> 2) & 1, (out >> 3) & 1  # lsb, kept, msb

    def test_one_plus_one(self):
        assert self.run(0, ctl=1, i1=1, i2=1) == (0, 1, 1)

    def test_control_off_is_identity(self):
        assert self.run(1, ctl=0, i1=1, i2=1) == (1, 1, 0)

    def test_one_plus_one_plus_one(self):
        assert self.run(1, ctl=1, i1=1, i2=1) == (1, 1, 1)

    def test_exhaustive_against_integer_sum(self):
        for const_bit in (0, 1):
            for i1 in (0, 1):
                for i2 in (0, 1):
                    total = i1 + i2 + const_bit
                    assert self.run(const_bit, 1, i1, i2) == (
                        total & 1, i2, total >> 1)

    def test_duplicate_wires_rejected(self):
        with pytest.raises(ValueError):
            build_bit_adder(0, [], sum_wire=1, keep_wire=1, carry_wire=2)


class TestAdder:
    def build(self, y, bits=5, ctl=True):
        reg = list(range(bits))
        work = list(range(bits, 2 * bits + 1))
        controls = [2 * bits + 1] if ctl else []
        return build_adder(y, reg, work, controls), reg, work, controls

    def test_eleven_plus_five(self):
        net, reg, work, controls = self.build(5)
        out = apply_network(11 | (1 << controls[0]), net)
        assert out & 31 == 16
        assert all((out >> w) & 1 == 0 for w in work)

    def test_add_zero_is_identity(self):
        net, *_ = self.build(0)
        assert len(net.gates) == 0

    def test_exhaustive_all_pairs_at_width_five(self):
        # register is L+1 = 5 bits wide for 4-bit operands
        for y in range(32):
            net, reg, work, controls = self.build(y)
            bad = exhaustive_network_check(net, lambda v, y=y: v + y,
                                           range(32 - y), in_wires=reg,
                                           zero_wires=work, set_wires=controls)
            assert bad == [], f"y={y}: {bad[:3]}"

    def test_control_off_is_identity_exhaustive(self):
        net, reg, work, _ = self.build(13)
        bad = exhaustive_network_check(net, lambda v: v, range(19),
                                       in_wires=reg, zero_wires=work)
        assert bad == []

    def test_mirror_is_identity(self):
        net, reg, work, controls = self.build(9, bits=4)
        width = net.qubit_count
        both = Network([*net.gates, *net.gates[::-1]], width)
        values = np.arange(1 << width)
        assert np.array_equal(apply_network_batch(values, both), values)


class TestModAdder:
    def build(self, y, n=15, bits=4):
        value = list(range(bits))
        flag_lo, flag_hi = bits, bits + 1
        work = list(range(bits + 2, 2 * bits + 5))
        ctl = 2 * bits + 5
        net = build_mod_adder(y, n, value, flag_lo, flag_hi, work, [ctl])
        zero = [flag_lo, flag_hi, *work]
        return net, value, zero, ctl

    def test_wraparound(self):
        net, value, zero, ctl = self.build(8)
        out = apply_network(9 | (1 << ctl), net)
        assert out & 15 == 2  # 17 mod 15

    def test_no_wraparound(self):
        net, value, zero, ctl = self.build(4)
        out = apply_network(3 | (1 << ctl), net)
        assert out & 15 == 7

    def test_exhaustive_all_pairs_mod_fifteen(self):
        for y in range(15):
            net, value, zero, ctl = self.build(y)
            bad = exhaustive_network_check(net, lambda v, y=y: (v + y) % 15,
                                           range(15), in_wires=value,
                                           zero_wires=zero, set_wires=[ctl])
            assert bad == [], f"y={y}: {bad[:3]}"

    def test_emits_end_checkpoint(self):
        net, value, zero, ctl = self.build(3)
        assert len(net.checkpoints) == 1
        chk = net.checkpoints[0]
        assert chk == Checkpoint.of(len(net.gates), zero)
        assert chk.qubits == tuple(sorted(zero))

    def test_rejects_addend_outside_modulus(self):
        with pytest.raises(ValueError):
            self.build(15)


def composed_adder(y, reg, work, controls=()):
    """build_adder for an in-range y and enough scratch, composed from the
    exported column and swap builders, each checking its own wires."""
    m = len(reg)
    qubit_count = qubit_mask([*reg, *work, *controls]).bit_length()
    if y == 0:
        return Network([], qubit_count)
    gates = []
    for i in range(m):
        gates += build_bit_adder(y >> i & 1, controls, work[i], reg[i],
                                 work[i + 1] if i < m - 1 else None)
    for i in range(m):
        gates += controlled_swap(controls, reg[i], work[i])
    gates.append((qubit_mask(controls), qubit_mask([work[m]])))
    unwind = [gate for i in range(m) for gate in build_bit_adder(
        ((1 << m) - y) >> i & 1, controls, work[i], reg[i], work[i + 1])]
    return Network(gates + unwind[::-1], qubit_count)


def adder_refusal(reg, work, controls=()):
    """``build_adder``'s refusal of wires that repeat or hold a control."""
    return (f"adder wires must be distinct and not controls, got reg={list(reg)}, "
            f"work={list(work)}, controls={list(controls)}")


def outcome(make):
    """The network a builder makes, or the text of its refusal."""
    try:
        return make()
    except ValueError as err:
        return str(err)


class TestAdderRefusals:
    """The adders check their wires once, by one rule: the register wires and
    the scratch wires an adder uses are distinct, and none is a control.
    A refusal names the lists as the adder was given them."""

    @pytest.mark.parametrize("make, message", [
        (lambda: build_adder(1, [0, 1, 2], [3, 3, 4, 5]),
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1, 2], work=[3, 3, 4, 5], controls=[]"),
        (lambda: build_adder(1, [0, 1, 2], [3, 0, 4, 5]),
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1, 2], work=[3, 0, 4, 5], controls=[]"),
        (lambda: build_adder(1, [0, 1], [2, 1, 4]),
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1], work=[2, 1, 4], controls=[]"),
        (lambda: build_adder(1, [0, 1], [2, 3, 1]),  # only un-rippling uses work[2]
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1], work=[2, 3, 1], controls=[]"),
        (lambda: build_adder(1, [np.int64(0)], [np.int64(0), 1]),
         "adder wires must be distinct and not controls, "
         "got reg=[np.int64(0)], work=[np.int64(0), 1], controls=[]"),
        (lambda: build_adder(1, [0, 0], [1, 2, 3]),  # in no column together
         "adder wires must be distinct and not controls, "
         "got reg=[0, 0], work=[1, 2, 3], controls=[]"),
        (lambda: build_adder(1, [0, 1], [2, 3, 4], controls=[0]),
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1], work=[2, 3, 4], controls=[0]"),
        (lambda: build_adder(1, [0, 1], (2, 3, 4, 5), controls=(6, 4)),
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1], work=[2, 3, 4, 5], controls=[6, 4]"),
        (lambda: build_adder(1, [0, 0], [1.5, 2, 3]), "qubit=1.5 must be an integer"),
        (lambda: build_adder(1, [0, -1], [2, 3, 4]), "negative qubit index -1"),
        (lambda: build_adder(1, [0], [1, 2], [0.5]), "qubit=0.5 must be an integer"),
        (lambda: build_adder(4, [0, 1], [2, 3, 4]), "constant 4 does not fit in 2 bits"),
        (lambda: build_adder(1, [0, 1], [2, 3]), "adder on 2 wires needs 3 scratch wires"),
        (lambda: build_mod_adder(7, 15, [0, 1, 2, 3], 4, 5, [0, *range(6, 12)]),
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1, 2, 3, 4], work=[0, 6, 7, 8, 9, 10], controls=[]"),
        (lambda: build_mod_adder(7, 15, [0, 1, 2, 3], 4, 5, [6, 7, 8, 9, 10, 4, 11]),
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1, 2, 3, 4], work=[6, 7, 8, 9, 10, 4], controls=[]"),
        (lambda: build_mod_adder(7, 15, [0, 1, 2, 3], 4, 5, range(6, 13), [5]),
         "adder wires must be distinct and not controls, "
         "got reg=[0, 1, 2, 3, 4, 5], work=[6, 7, 8, 9, 10, 11, 12], controls=[5]"),
        (lambda: build_mod_adder(7, 15, [0, 1, 2, 3], 4.5, 5, range(6, 13)),
         "qubit=4.5 must be an integer"),
        (lambda: build_bit_adder(1, [], 1, 1, 2),
         "bit adder wires must be distinct and not controls, "
         "got sum_wire=1, keep_wire=1, carry_wire=2, controls=[]"),
        (lambda: build_bit_adder(1, [], 1, 2, 1),
         "bit adder wires must be distinct and not controls, "
         "got sum_wire=1, keep_wire=2, carry_wire=1, controls=[]"),
        (lambda: build_bit_adder(1, [], 1, 1, None),
         "bit adder wires must be distinct and not controls, "
         "got sum_wire=1, keep_wire=1, carry_wire=None, controls=[]"),
        (lambda: build_bit_adder(1, [2], 1, 2, 3),  # two cancelling gates unchecked
         "bit adder wires must be distinct and not controls, "
         "got sum_wire=1, keep_wire=2, carry_wire=3, controls=[2]"),
        (lambda: build_bit_adder(1, (0, 3), 1, 2, 3),
         "bit adder wires must be distinct and not controls, "
         "got sum_wire=1, keep_wire=2, carry_wire=3, controls=[0, 3]"),
        (lambda: build_bit_adder(0, [np.int64(1)], np.int64(1), 2, None),
         "bit adder wires must be distinct and not controls, "
         "got sum_wire=np.int64(1), keep_wire=2, carry_wire=None, controls=[np.int64(1)]"),
        (lambda: build_bit_adder(1, [0.5], 1, 2, 3), "qubit=0.5 must be an integer"),
        (lambda: build_bit_adder(1, [], -1, 2, 3), "negative qubit index -1"),
        (lambda: controlled_swap([1], 1, 0),  # unchecked, the control folded into a gate
         "swap wires must be distinct and not controls, got a=1, b=0, controls=[1]"),
        (lambda: controlled_swap((3, 0), 1, 0),
         "swap wires must be distinct and not controls, got a=1, b=0, controls=[3, 0]"),
        (lambda: controlled_swap([2], 1, 1),  # unchecked, refused only by compile_masks
         "swap wires must be distinct and not controls, got a=1, b=1, controls=[2]"),
        (lambda: controlled_swap([], np.int64(4), 4),
         "swap wires must be distinct and not controls, got a=np.int64(4), b=4, controls=[]"),
        (lambda: controlled_swap([], 0, -1), "negative qubit index -1"),
    ], ids=["column", "column-carry", "top-column", "unwind-column", "numpy-named-as-given",
            "register-repeat", "control-in-register", "control-in-work",
            "non-integer-first", "negative", "control", "constant", "scratch",
            "mod-value-in-work", "mod-flag-in-work", "mod-flag-as-control", "mod-flag",
            "bit-sum-keep", "bit-sum-carry", "bit-top", "bit-control-on-keep",
            "bit-control-on-carry", "bit-numpy-named-as-given", "bit-control",
            "bit-negative", "swap-control-on-a", "swap-control-on-b", "swap-repeat",
            "swap-numpy-named-as-given", "swap-negative"])
    def test_refused_with_the_same_text(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_a_repeat_outside_every_column_is_refused(self):
        # work[2] is reg[0]: no column holds both, yet the adder is wrong
        message = adder_refusal([0, 1], [2, 3, 0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_adder(1, [0, 1], [2, 3, 0])
        assert build_adder(0, [0, 0], [0, 1, 2]) == Network([], 3)  # nothing built

    def test_random_wires_as_the_composed_adder(self):
        # the column and swap builders are the reference wherever the
        # adder's wires are distinct and no control is one of them
        rng = np.random.default_rng(32)
        seen = set()
        for _ in range(2000):
            m = int(rng.integers(1, 5))
            pick = [0, 1, 2, 3, 4, 5, 6, 7, 8, -1, 1.5, np.int64(3)]
            reg, work, controls = ([pick[k] for k in rng.choice(len(pick), size, p=[0.1] * 9
                                                                  + [0.03, 0.03, 0.04])]
                                   for size in (m, m + 1, int(rng.integers(0, 3))))
            y = int(rng.integers(0, 1 << m))
            got = outcome(lambda: build_adder(y, reg, work, controls))
            wires = {*reg, *work}
            valid = all(w in pick[:9] for w in [*reg, *work, *controls])
            if y and valid and (len(wires) < 2 * m + 1 or wires & {*controls}):
                assert got == adder_refusal(reg, work, controls)
            else:
                assert got == outcome(lambda: composed_adder(y, reg, work, controls)), (
                    y, reg, work, controls)
            seen.add(got.split(", got")[0] if isinstance(got, str) else "network")
        assert seen == {"network", "adder wires must be distinct and not controls",
                        "negative qubit index -1", "qubit=1.5 must be an integer"}


class TestMultiplier:
    def build(self, c, n=15, bits=4):
        reg = list(range(bits))
        acc = list(range(bits, 2 * bits))
        flag_lo, flag_hi = 2 * bits, 2 * bits + 1
        work = list(range(2 * bits + 2, 3 * bits + 5))
        ctl = 3 * bits + 5
        net = build_controlled_multiplier(c, n, reg, acc, flag_lo, flag_hi,
                                          work, [ctl])
        zero = [*acc, flag_lo, flag_hi, *work]
        return net, reg, zero, ctl

    def test_seven_times_four(self):
        net, reg, zero, ctl = self.build(4)
        out = apply_network(7 | (1 << ctl), net)
        assert out & 15 == 13  # 28 mod 15

    def test_control_off_keeps_input(self):
        net, reg, zero, ctl = self.build(4)
        out = apply_network(7, net)
        assert out == 7

    @pytest.mark.parametrize("c", [1, 2, 7, 13])
    def test_exhaustive_over_inputs(self, c):
        net, reg, zero, ctl = self.build(c)
        bad = exhaustive_network_check(net, lambda v: v * c % 15, range(15),
                                       in_wires=reg, zero_wires=zero,
                                       set_wires=[ctl])
        assert bad == []

    def test_factor_sharing_a_divisor_rejected(self):
        with pytest.raises(ValueError):
            self.build(6)  # gcd(6, 15) = 3, no inverse


class TestModExp:
    def test_zero_exponent_gives_one(self, factoring_15):
        _, layout, net = factoring_15
        out = apply_network(0, net)
        assert (out >> layout.reg2.start) & 15 == 1

    def test_exponent_five(self, factoring_15):
        # frozen: 7^5 = 7*7*7*7*7 = 16807 = 1120*15 + 7
        _, layout, net = factoring_15
        out = apply_network(5, net)
        assert (out >> layout.reg2.start) & 15 == 7

    def test_all_exponents_below_q(self, factoring_15):
        _, layout, net = factoring_15
        bad = exhaustive_network_check(net, lambda a: pow(7, a, 15),
                                       range(130), in_wires=list(layout.reg1),
                                       out_wires=list(layout.reg2),
                                       zero_wires=layout.work_qubits)
        assert bad == []

    def test_gates_are_plain_int_pairs(self, factoring_15):
        _, _, net = factoring_15
        assert {type(g) for g in net.gates} == {tuple}
        assert all(len(g) == 2 and type(g[0]) is type(g[1]) is int for g in net.gates)

    def test_never_targets_the_exponent_register(self, factoring_15):
        _, layout, net = factoring_15
        assert all(t.bit_length() - 1 not in layout.reg1 for _, t in net.gates)

    def test_validates_cleanly(self, factoring_15):
        _, layout, net = factoring_15
        assert validate_network(net, layout) == []

    def test_checkpoints_cover_every_block(self, factoring_15):
        _, layout, net = factoring_15
        # 8 inner adder checkpoints plus the block checkpoint per multiplier
        assert len(net.checkpoints) == len(layout.reg1) * 9
        assert net.checkpoints[-1].position == len(net.gates)

    def test_rejects_mismatched_layout(self):
        params = ArithParams.create(15, 7, 130)
        layout = RegisterLayout.for_factoring(5, q=130)
        with pytest.raises(ValueError):
            build_modexp(params, layout)


    @pytest.mark.parametrize("n, x, q, digest", [
        (15, 7, 130, "927abc080da30cd1289d99c1417712518edc4a757c0aaa47c0e499e41b84fe8b"),
        (21, 2, 512, "7ff13074bbbd13e5ec05145f75e8750b00fffce0d6e23d3e05af57c35c6a603b"),
        (33, 10, 1100, "a87b31e622d95d9cde934697388a56d51f5a5ff7d5f8847bd9033bf6034d1241"),
    ])
    def test_network_text_is_pinned(self, n, x, q, digest):
        # the builders must emit the same gates, in the same order, for
        # every instance: the tables and CLI bytes depend on it
        params = ArithParams.create(n, x, q)
        layout = RegisterLayout.for_factoring(params.bits, q=q)
        text = network_to_text(build_modexp(params, layout))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestArithParams:
    def test_shared_factor_rejected_with_factor_named(self):
        with pytest.raises(ValueError, match="5"):
            ArithParams.create(15, 5, 130)

    def test_base_range_enforced(self):
        with pytest.raises(ValueError):
            ArithParams.create(15, 1, 130)

    @pytest.mark.parametrize("n, x, q, field, message", [
        (2, 7, 130, "n", "cannot factor 2"),
        (15, 1, 130, "x", "base 1 must lie strictly between 1 and 15"),
        (15, 5, 130, "x", "gcd(5, 15) = 5; 5 is already a factor of 15"),
        (15, 7, 1, "q", "q must lie in 2..65536, got 1"),
        (262145, 3, 4, "n", "n=262145 with q=4 needs 65 qubits; at most 62 are supported")])
    def test_refusal_names_its_field(self, n, x, q, field, message):
        # shorsim build turns the field into its flag
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as err:
            ArithParams.create(n, x, q)
        assert err.value.field == field

    @pytest.mark.parametrize("n, x, q, field, message", [
        (15.0, 7, 130, "n", "n=15.0 must be an integer"),
        (15, "7", 130, "x", "x='7' must be an integer"),
        (15, 7, 130.5, "q", "q=130.5 must be an integer")])
    def test_non_integer_names_its_field(self, n, x, q, field, message):
        # unchecked, range_problem raised AttributeError on float.bit_length
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as err:
            ArithParams.create(n, x, q)
        assert err.value.field == field

    def test_numpy_integers_pass_as_ints(self):
        params = ArithParams.create(np.int64(15), np.uint8(7), np.int32(130))
        assert params == ArithParams.create(15, 7, 130)
        assert [type(v) for v in (params.n, params.x, params.q)] == [int] * 3

    def test_bit_width(self):
        assert ArithParams.create(15, 7, 130).bits == 4
        assert ArithParams.create(21, 2, 450).bits == 5


class TestResources:
    def test_qubit_count_at_four_bits(self):
        assert resource_estimate(4).qubits == 28

    def test_qubit_count_at_one_bit(self):
        report = resource_estimate(1)
        assert report.qubits == 13
        assert report.elementary_gates is None

    @pytest.mark.parametrize("bits", [2.5, "4"])
    def test_non_integer_bits_refused(self, bits):
        # unchecked, 2.5 raised a TypeError from <<
        with pytest.raises(ValueError, match=f"^bits={re.escape(repr(bits))} must be an "
                                             "integer$"):
            resource_estimate(bits)

    def test_formula_value_at_four_bits(self):
        # 240*64 + 484*16 + 182*4
        assert gate_count_formula(4) == 23832
        assert resource_estimate(4).formula_gates == 23832

    def test_exact_count_within_factor_two_of_formula(self):
        report = resource_estimate(4)
        ratio = report.formula_gates / report.elementary_gates
        assert 0.5 <= ratio <= 2.0
