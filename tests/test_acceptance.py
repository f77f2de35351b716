"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; tolerances are fixed here and nowhere else.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from shorsim import (ArithParams, ExperimentConfig, RegisterLayout,
                     build_adder, build_controlled_multiplier, build_mod_adder,
                     build_modexp, distribution_ed, distribution_ned,
                     fourier_first_register, init_state, resource_estimate, run,
                     run_experiment, sample_schedule)
from shorsim.oracles import (exhaustive_network_check, direct_outcome_table,
                             outcome_table_oracle, folded_outcome_table)
from shorsim.simulator import ExponentialDecay, NoiseSchedule, StaticDecay

from reference import as_dict, from_dict, reference_transform

COPRIME_BASES = [2, 4, 7, 8, 11, 13, 14]
PEAK_CENTERS = (0.0, 32.5, 65.0, 97.5)


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def off_peak_cells(q: int = 130) -> list[int]:
    cells = []
    for c in range(q):
        dist = min(min(abs(c - p), q - abs(c - p)) for p in PEAK_CENTERS)
        if dist > 2.0:
            cells.append(c)
    return cells


def test_criterion_1_exhaustive_arithmetic(factoring_15):
    """Every arithmetic block at L=4 / n=15, all in-domain inputs, clean scratch."""
    failures = []

    for y in range(16):
        net = build_adder(y, reg=list(range(5)), work=list(range(5, 11)),
                          controls=[11])
        failures += exhaustive_network_check(
            net, lambda v, y=y: v + y, range(32 - y),
            in_wires=list(range(5)), zero_wires=list(range(5, 11)),
            set_wires=[11])

    for y in range(15):
        net = build_mod_adder(y, 15, value=[0, 1, 2, 3], flag_lo=4, flag_hi=5,
                              work=list(range(6, 13)), controls=[13])
        failures += exhaustive_network_check(
            net, lambda v, y=y: (v + y) % 15, range(15),
            in_wires=[0, 1, 2, 3], zero_wires=list(range(4, 13)),
            set_wires=[13])

    for c in [1, *COPRIME_BASES]:
        net = build_controlled_multiplier(
            c, 15, reg=[0, 1, 2, 3], acc=[4, 5, 6, 7], flag_lo=8, flag_hi=9,
            work=list(range(10, 17)), controls=[17])
        failures += exhaustive_network_check(
            net, lambda v, c=c: v * c % 15, range(15),
            in_wires=[0, 1, 2, 3], zero_wires=list(range(4, 17)),
            set_wires=[17])

    layout = RegisterLayout.for_factoring(4, q=130)
    for x in COPRIME_BASES:
        net = build_modexp(ArithParams.create(15, x, 130), layout)
        failures += exhaustive_network_check(
            net, lambda a, x=x: pow(x, a, 15), range(130),
            in_wires=list(layout.reg1), out_wires=list(layout.reg2),
            zero_wires=layout.work_qubits)

    verdict(1, "exhaustive arithmetic at L=4", not failures,
            f"{len(failures)} counterexamples")
    assert failures == []


def test_criterion_2_resource_numbers():
    report = resource_estimate(4)
    ratio = report.formula_gates / report.elementary_gates
    ok = (report.qubits == 28 and report.formula_gates == 23832
          and 0.5 <= ratio <= 2.0)
    verdict(2, "resource numbers", ok,
            f"qubits={report.qubits}, formula={report.formula_gates}, "
            f"exact={report.elementary_gates}, ratio={ratio:.2f}")
    assert report.qubits == 28
    assert report.formula_gates == 23832
    assert 0.5 <= ratio <= 2.0


def test_criterion_3_ideal_run_equivalence(factoring_15):
    _, layout, net = factoring_15
    state = run(init_state(130, layout), net, NoiseSchedule([], StaticDecay(0.5)))
    state = fourier_first_register(state, 130, layout)
    ned = distribution_ned(state, layout, 130)
    oracle = outcome_table_oracle(15, 7, 130)
    gap = float(np.max(np.abs(ned.table - oracle)))

    slice7 = ned.table[:, 7]
    interior_max = slice7[1:129].max()
    candidates = [c for c in range(1, 129)
                  if slice7[c] >= slice7[c - 1] and slice7[c] >= slice7[c + 1]
                  and slice7[c] > 0.3 * interior_max]
    peaks = [candidates[0]]
    for c in candidates[1:]:
        if c - peaks[-1] > 2:
            peaks.append(c)
    separations = np.diff(peaks)
    sep_ok = len(peaks) == 3 and all(abs(s - 32.5) <= 1.0 for s in separations)

    verdict(3, "ideal-run equivalence", gap <= 1e-10 and sep_ok,
            f"max gap {gap:.2e}, peaks {peaks}, "
            f"separations {[int(s) for s in separations]}")
    assert gap <= 1e-10
    assert sep_ok


def test_criterion_4_unitarity(factoring_15):
    _, layout, net = factoring_15
    sched = sample_schedule(10, layout.qubit_count, 20250101, StaticDecay(0.5))
    state = run(init_state(130, layout), net, sched, verify_norm=True)
    after_run = state.norm_squared()
    after_dft = fourier_first_register(state, 130, layout).norm_squared()
    ok = abs(after_run - 1) <= 1e-10 and abs(after_dft - 1) <= 1e-10
    verdict(4, "unitarity through gates, decays and the transform", ok,
            f"norm after run {after_run:.12f}, after transform {after_dft:.12f}")
    assert abs(after_run - 1) <= 1e-10
    assert abs(after_dft - 1) <= 1e-10


def test_criterion_5_error_detection(factoring_15):
    _, layout, net = factoring_15
    cells = off_peak_cells()
    ned_pool, ed_pool = [], []
    pointwise_ok = True
    for seed in range(50):
        sched = sample_schedule(10, layout.qubit_count, seed, StaticDecay(0.5))
        state = run(init_state(130, layout), net, sched)
        state = fourier_first_register(state, 130, layout)
        ned = distribution_ned(state, layout, 130).table
        ed = distribution_ed(state, layout, 130).table
        pointwise_ok &= bool(np.all(ed <= ned + 1e-15))
        ned_pool.extend(ned[cells, 7])
        ed_pool.extend(ed[cells, 7])
    med_ned = float(np.median(ned_pool))
    med_ed = float(np.median(ed_pool))
    ok = med_ed < med_ned and pointwise_ok
    verdict(5, "error detection suppresses the off-peak floor", ok,
            f"median NED {med_ned:.3e}, median ED {med_ed:.3e}, "
            f"pointwise ED<=NED {pointwise_ok}")
    assert pointwise_ok
    assert med_ed < med_ned


def test_criterion_6_watchdog_gain(factoring_15):
    """Peak amplitudes are read on the r2=7 slice, normalized within the
    slice; the unconditioned joint peak is bounded by its ideal value 0.064,
    too small a scale for the [0.02, 0.3] target band on noisy runs."""
    _, layout, net = factoring_15
    law = ExponentialDecay(2.5)
    assert 1 - math.exp(-2.5) == pytest.approx(0.918, abs=1e-3)
    peaks_on, peaks_off = [], []
    for seed in range(50):
        sched = sample_schedule(10, layout.qubit_count, seed, law)
        for mode, sink in (("on", peaks_on), ("off", peaks_off)):
            state = run(init_state(130, layout), net, sched, watchdog=mode)
            state = fourier_first_register(state, 130, layout)
            table = distribution_ned(state, layout, 130).table
            sink.append(table[65, 7] / table[:, 7].sum())
    mean_on = float(np.mean(peaks_on))
    mean_off = float(np.mean(peaks_off))
    gain_ok = mean_on >= 2.0 * mean_off
    band_ok = 0.02 <= mean_off <= 0.3
    verdict(6, "watchdog gain", gain_ok and band_ok,
            f"central peak on {mean_on:.3f}, off {mean_off:.3f}, "
            f"gain {mean_on / mean_off:.2f} (need >= 2), "
            f"off in [0.02, 0.3]: {band_ok}")
    assert band_ok
    assert gain_ok


def test_criterion_7_factoring_end_to_end():
    # the oracle predicts per-sample failure only for c = 0, so the
    # 20-sample failure probability is P(c=0)^20, far below 5%
    oracle = outcome_table_oracle(15, 7, 130)
    p_zero = float(oracle[0, :].sum())
    predicted = 1.0 - p_zero ** 20
    cfg = ExperimentConfig(n=15, x=7, q=130, n_events=0, seed=77,
                           repetitions=100, samples=20)
    report = run_experiment(cfg)
    rate = report.stats["success_rate"]
    ok = (report.order == 4 and report.factors == {3, 5} and rate >= 0.95)
    verdict(7, "factoring end to end", ok,
            f"order {report.order}, factors {sorted(report.factors or [])}, "
            f"success {rate:.2f} (oracle prediction {predicted:.4f})")
    assert report.order == 4
    assert report.factors == {3, 5}
    assert rate >= 0.95


def test_criterion_8_oracle_self_consistency():
    worst = 0.0
    for n, x, q in [(15, 7, 130), (15, 2, 130), (21, 2, 50)]:
        gap = float(np.max(np.abs(direct_outcome_table(n, x, q) - folded_outcome_table(n, x, q))))
        worst = max(worst, gap)

    layout = RegisterLayout.for_factoring(4, q=130)
    rng = np.random.default_rng(99)
    worst_rt = 0.0
    for _ in range(5):
        count = 40
        comp = (rng.integers(0, 130, count)
                | (rng.integers(0, 1 << 18, count) << 8))
        env = rng.integers(0, 16, count)
        amps = {}
        for c, e in zip(comp, env):
            amps[(int(c), int(e))] = complex(rng.normal(), rng.normal())
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        state = from_dict(layout.qubit_count, 4, {k: a / norm for k, a in amps.items()})
        back = reference_transform(fourier_first_register(state, 130, layout), 130, layout,
                                   inverse=True)
        rebuilt = as_dict(back)
        for key, amp in as_dict(state).items():
            worst_rt = max(worst_rt, abs(rebuilt[key] - amp))

    ok = worst <= 1e-12 and worst_rt <= 1e-10
    verdict(8, "oracle self-consistency", ok,
            f"formula gap {worst:.2e}, transform round trip {worst_rt:.2e}")
    assert worst <= 1e-12
    assert worst_rt <= 1e-10
