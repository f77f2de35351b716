"""run() against a density-matrix oracle on small random networks.

Tracing out the environment record turns each decay event into an
amplitude-damping channel on the computer's reduced state, a gate into a
permutation of basis strings and a strict checkpoint into a projection
followed by renormalisation.  The oracle evolves rho = |psi><psi| by these
maps alone: it places events, reads clocks and applies gates by itself,
sharing no code with the run's decay, slides, edge passes, plan or event
records.  The outcome tables are checked against the diagonal of rho after
the first register's Fourier transform, built as a matrix.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from shorsim import Network, RegisterLayout, gates, run, sample_schedule
from shorsim.gates import Checkpoint, gate_masks
from shorsim.simulator import (ExponentialDecay, SparseState, StaticDecay, distribution_ed,
                               distribution_ned, fourier_first_register, outcome_tables)


def damp(rho, qubit, p1):
    """Amplitude damping of ``qubit`` with persistence probability p1, by
    the Kraus operators K0 = |0><0| + sqrt(p1) |1><1| and
    K1 = sqrt(1 - p1) |0><1|."""
    strings = np.arange(len(rho))
    one = (strings >> qubit & 1).astype(bool)
    k0 = np.where(one, math.sqrt(p1), 1.0)
    k1 = np.zeros(rho.shape)
    k1[strings[one] ^ (1 << qubit), strings[one]] = math.sqrt(1.0 - p1)
    return k0[:, None] * rho * k0[None, :] + k1 @ rho @ k1.T


def permute(rho, control, target):
    """The gate as the permutation P of basis strings: P rho P^T."""
    strings = np.arange(len(rho))
    image = np.where(strings & control == control, strings ^ target, strings)
    out = np.empty_like(rho)
    out[np.ix_(image, image)] = rho
    return out


def project(rho, mask):
    """The qubits in ``mask`` projected onto 0, renormalised; a projection
    that keeps no weight leaves rho as it is, as run() does."""
    keep = (np.arange(len(rho)) & mask) == 0
    weight = float(rho.diagonal()[keep].real.sum())
    return rho * np.outer(keep, keep) / weight if weight > 0.0 else rho


def oracle(psi, net, schedule, watchdog):
    """rho of the pure input ``psi`` after the network and the schedule's
    events.  An event at time t acts just before gate ceil(t * G) of G,
    with p1 from its qubit's clock; at each position the events act first,
    then each checkpoint there resets its qubits' clocks to the position
    over G ('on', 'strict') and, in strict mode, projects."""
    rho = np.outer(psi, psi.conj())
    total, clocks = len(net.gates), {}
    for g in range(total + 1):
        for ev in schedule.events:
            if math.ceil(ev.time * total) == g:
                p1 = schedule.law.persist_probability(ev.time, clocks.get(ev.qubit, 0.0))
                rho = damp(rho, ev.qubit, p1)
        for position, mask in net.checkpoints:
            if position == g and watchdog != "off":
                clocks.update((q, g / total) for q in range(net.qubit_count) if mask >> q & 1)
                rho = project(rho, mask) if watchdog == "strict" else rho
        if g < total:
            rho = permute(rho, *net.gates[g])
    return rho


def reduced(state):
    """The sum over environment records e of |psi_e><psi_e|."""
    envs, row = np.unique(state.env, return_inverse=True)
    psi = np.zeros((len(envs), 1 << state.qubit_count), dtype=complex)
    psi[row, state.comp] = state.amp
    return psi.T @ psi.conj()


def random_case(rng):
    """A network on 3-7 wires with 1-39 gates of 0-3 controls and 0-3
    checkpoints, and a random pure input on some of its basis strings."""
    width = int(rng.integers(3, 8))
    gate_list = []
    for _ in range(int(rng.integers(1, 40))):
        wires = rng.choice(width, size=int(rng.integers(1, min(4, width) + 1)), replace=False)
        gate_list.append(gate_masks(wires[1:].tolist(), int(wires[0])))
    checkpoints = [Checkpoint.of(int(pos), rng.choice(width, size=int(rng.integers(1, 3)),
                                                      replace=False).tolist())
                   for pos in np.sort(rng.integers(0, len(gate_list) + 1, int(rng.integers(4))))]
    support = np.flatnonzero(rng.random(1 << width) < 0.5)
    if not len(support):
        support = np.array([0])
    amp = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    amp /= np.linalg.norm(amp)
    psi = np.zeros(1 << width, dtype=complex)
    psi[support] = amp
    state = SparseState(width, 0, support, np.zeros_like(support), amp)
    return gate_list, width, checkpoints, state, psi


@pytest.mark.parametrize("seed", range(4))
def test_runs_match_the_density_matrix_oracle(seed, monkeypatch):
    # Blocks of at most 3 wires in groups of at most 5, so that even these
    # networks walk several groups and blocks.  Each mode runs a fresh
    # network three times: the first run, the rerun that builds the tables
    # and a warm rerun, each on its own schedule.
    monkeypatch.setattr(gates, "FUSE_WIRES", 3)
    monkeypatch.setattr(gates, "BLOCK_WIRES", 5)
    rng = np.random.default_rng(seed)
    laws = [StaticDecay(0.0), StaticDecay(0.3), StaticDecay(1.0), ExponentialDecay(2.5)]
    for _ in range(10):
        gate_list, width, checkpoints, state, psi = random_case(rng)
        for watchdog in ("off", "on", "strict"):
            net = Network(gate_list, width, checkpoints)
            for _ in range(3):
                law = laws[int(rng.integers(len(laws)))]
                sched = sample_schedule(int(rng.integers(6)), width,
                                        int(rng.integers(1 << 30)), law)
                got = reduced(run(state, net, sched, watchdog))
                want = oracle(psi, net, sched, watchdog)
                assert np.max(np.abs(got - want)) <= 1e-12, (watchdog, sched)


# 7 wires: a 3-wire first register, 2 second-register wires, 2 scratch wires
TABLE_LAYOUT = RegisterLayout(range(0, 3), range(3, 5), range(5, 5), range(5, 5), 5, 6)


def oracle_tables(rho, layout, q):
    """ned and ed from the diagonal of (F x I) rho (F x I)^dagger, F the size-q
    Fourier transform of the first register, F|a> = sum_c exp(2 pi i a c / q)
    |c> / sqrt(q): ned its sum over all but (r1, r2), ed the same over the
    strings whose scratch wires read 0."""
    strings = np.arange(len(rho))
    a = strings >> layout.reg1.start & (1 << len(layout.reg1)) - 1
    ok = a < q
    u = np.zeros(rho.shape, dtype=complex)
    for c in range(q):
        u[strings[ok] + ((c - a[ok]) << layout.reg1.start), strings[ok]] = (
            np.exp(2j * np.pi * a[ok] * c / q) / math.sqrt(q))
    diagonal = np.einsum("ik,ik->i", u @ rho, u.conj()).real
    width = 1 << len(layout.reg2)
    cells = a * width + (strings >> layout.reg2.start & width - 1)
    clean = ok & (strings & layout.work_mask() == 0)
    return (np.bincount(cells[ok], diagonal[ok], q * width).reshape(q, width),
            np.bincount(cells[clean], diagonal[clean], q * width).reshape(q, width))


def table_case(rng, layout):
    """A q in 5..8, a network of 1-29 gates on the layout whose targets lie
    outside the first register, so every first-register value stays below
    q, 0-2 checkpoints on the scratch wires, and a random pure input on
    some strings with a first-register value below q."""
    q, width = int(rng.integers(5, 9)), layout.qubit_count
    targets = range(layout.reg1.stop, width)
    gate_list = []
    for _ in range(int(rng.integers(1, 30))):
        target = int(rng.choice(targets))
        controls = rng.choice([w for w in range(width) if w != target],
                              size=int(rng.integers(0, 3)), replace=False)
        gate_list.append(gate_masks(controls.tolist(), target))
    checkpoints = [Checkpoint.of(int(pos), layout.work_qubits)
                   for pos in np.sort(rng.integers(0, len(gate_list) + 1, int(rng.integers(3))))]
    strings = np.arange(1 << width)
    support = strings[(strings & (1 << len(layout.reg1)) - 1 < q)
                      & (rng.random(1 << width) < 0.3)]
    support = support if len(support) else np.array([0])
    amp = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    amp /= np.linalg.norm(amp)
    psi = np.zeros(1 << width, dtype=complex)
    psi[support] = amp
    state = SparseState(width, 0, support, np.zeros_like(support), amp)
    return q, gate_list, checkpoints, state, psi


@pytest.mark.parametrize("seed", range(2))
def test_tables_match_the_density_matrix_oracle(seed):
    # outcome_tables of each run, and distribution_ned's and _ed's of its
    # transformed state, against the oracle's rho; each mode runs a fresh
    # network twice, the first run and the rerun, each on its own schedule
    layout, rng = TABLE_LAYOUT, np.random.default_rng(seed)
    laws = [StaticDecay(0.0), StaticDecay(0.3), ExponentialDecay(2.5)]
    for _ in range(3):
        q, gate_list, checkpoints, state, psi = table_case(rng, layout)
        for watchdog in ("off", "on", "strict"):
            net = Network(gate_list, layout.qubit_count, checkpoints)
            for _ in range(2):
                law = laws[int(rng.integers(len(laws)))]
                sched = sample_schedule(int(rng.integers(1, 6)), layout.qubit_count,
                                        int(rng.integers(1 << 30)), law)
                out = run(state, net, sched, watchdog)
                want = oracle_tables(oracle(psi, net, sched, watchdog), layout, q)
                transformed = fourier_first_register(out, q, layout)
                got = [d.table for d in outcome_tables(out, layout, q)]
                for tables in (got, [distribution_ned(transformed, layout, q).table,
                                     distribution_ed(transformed, layout, q).table]):
                    for table, oracle_table in zip(tables, want):
                        assert np.max(np.abs(table - oracle_table)) <= 1e-12, (watchdog, sched)
