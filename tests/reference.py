"""Test-side references that share no code with shorsim: a state's dict
form, and the grouped first-register transform both ways."""
from __future__ import annotations

import math

import numpy as np

from shorsim import SparseState


def as_dict(state):
    """The state as {(comp, env): amplitude} with Python ints and complexes."""
    return {(int(c), int(e)): complex(a)
            for c, e, a in zip(state.comp, state.env, state.amp)}


def from_dict(qubit_count, env_count, amplitudes):
    """A state of the {(comp, env): amplitude} map, rows sorted by key."""
    keys = sorted(amplitudes)
    comp = np.array([k[0] for k in keys], dtype=np.int64)
    env = np.array([k[1] for k in keys], dtype=np.int64)
    amp = np.array([amplitudes[k] for k in keys], dtype=np.complex128)
    return SparseState(qubit_count, env_count, comp, env, amp)


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
