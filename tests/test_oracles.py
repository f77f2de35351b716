from __future__ import annotations

import numpy as np
import pytest

from shorsim import build_adder, build_mod_adder, modpow, multiplicative_order
from shorsim.gates import Network
from shorsim.oracles import (exhaustive_network_check, direct_outcome_table,
                             outcome_table_oracle, folded_outcome_table)


class TestModpow:
    def test_against_direct_multiplication_chain(self):
        assert modpow(7, 4, 15) == 7 * 7 * 7 * 7 % 15 == 1

    def test_zero_exponent(self):
        for x in (2, 7, 14):
            assert modpow(x, 0, 15) == 1

    @pytest.mark.parametrize("a", [-1, -4])
    def test_negative_exponent_refused(self, a):
        # unchecked, modpow(7, -4, 15) returned 1, the power of 7's inverse
        with pytest.raises(ValueError, match=f"^exponent a={a} must be at least 0$"):
            modpow(7, a, 15)

    def test_order_of_seven_mod_fifteen(self):
        assert multiplicative_order(7, 15) == 4

    def test_order_requires_coprimality(self):
        with pytest.raises(ValueError):
            multiplicative_order(5, 15)

    @pytest.mark.parametrize("x, n", [(2, 1), (3, -5), (1, 0), (1, 1)])
    def test_order_refuses_a_modulus_below_two(self, x, n):
        # unchecked, n = 1 and n = -5 looped forever and n = 0 divided by zero
        with pytest.raises(ValueError, match=f"^modulus n={n} must be at least 2$"):
            multiplicative_order(x, n)

    @pytest.mark.parametrize("table", [direct_outcome_table, folded_outcome_table,
                                       outcome_table_oracle])
    def test_tables_refuse_a_modulus_below_two(self, table):
        with pytest.raises(ValueError, match="^modulus n=1 must be at least 2$"):
            table(1, 2, 8)


class TestProbabilityOracle:
    @pytest.mark.parametrize("n,x,q", [(15, 7, 130), (15, 4, 130), (21, 2, 50),
                                       (15, 2, 64)])
    def test_the_two_evaluations_agree(self, n, x, q):
        gap = np.max(np.abs(direct_outcome_table(n, x, q) - folded_outcome_table(n, x, q)))
        assert gap <= 1e-12

    def test_table_sums_to_one(self):
        assert abs(outcome_table_oracle(15, 7, 130).sum() - 1.0) <= 1e-12

    def test_exact_divisibility_puts_peaks_on_multiples(self):
        # q = 132 is a multiple of the order r = 4, so the folded phase
        # vanishes exactly at c = d * 33 and each peak is ((q-1-k)//r + 1)^2/q^2.
        q = 132
        table = outcome_table_oracle(15, 7, q)
        slice7 = table[:, 7]  # class k = 1
        for d in range(4):
            c = d * 33
            expected = ((q - 1 - 1) // 4 + 1) ** 2 / q ** 2
            assert slice7[c] == pytest.approx(expected, abs=1e-12)
            if 0 < c < q - 1:
                assert slice7[c] > slice7[c - 1] and slice7[c] > slice7[c + 1]

    def test_oracle_self_check_raises_on_disagreement(self, monkeypatch):
        import shorsim.oracles as orc
        monkeypatch.setattr(orc, "direct_outcome_table",
                            lambda n, x, q: np.zeros((q, 16)))
        with pytest.raises(RuntimeError):
            orc.outcome_table_oracle(15, 7, 130)


class TestExhaustiveChecker:
    def test_adder_against_integer_addition(self):
        net = build_adder(5, reg=list(range(5)), work=list(range(5, 11)),
                          controls=[11])
        bad = exhaustive_network_check(net, lambda v: v + 5, range(27),
                                       in_wires=list(range(5)),
                                       zero_wires=list(range(5, 11)),
                                       set_wires=[11])
        assert bad == []

    def test_mod_adder_against_modular_addition(self):
        net = build_mod_adder(8, 15, value=[0, 1, 2, 3], flag_lo=4, flag_hi=5,
                              work=list(range(6, 13)), controls=[13])
        bad = exhaustive_network_check(net, lambda v: (v + 8) % 15, range(15),
                                       in_wires=[0, 1, 2, 3],
                                       zero_wires=list(range(4, 13)),
                                       set_wires=[13])
        assert bad == []

    def test_corrupted_network_yields_counterexample(self):
        net = build_adder(5, reg=list(range(5)), work=list(range(5, 11)))
        drop = len(net.gates) // 2  # a live gate; edge gates can be inert
        broken = Network([g for i, g in enumerate(net.gates) if i != drop],
                         net.qubit_count)
        bad = exhaustive_network_check(broken, lambda v: v + 5, range(27),
                                       in_wires=list(range(5)),
                                       zero_wires=list(range(5, 11)))
        assert bad != []
        assert "expected" in str(bad[0])

    def test_ancilla_leak_detected(self):
        # identity on the value wire but leaves wire 1 dirty
        from shorsim.gates import gate_masks
        net = Network([gate_masks((), 1)], 2)
        bad = exhaustive_network_check(net, lambda v: v, range(2),
                                       in_wires=[0], zero_wires=[1])
        assert len(bad) == 2
