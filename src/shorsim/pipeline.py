"""End-to-end factoring runs: pre-checks, simulated experiments, order
recovery through continued fractions, and factor extraction."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import ArithParams, build_modexp
from .gates import RegisterLayout
from .oracles import modpow, multiplicative_order
from .simulator import (MAX_EVENTS, Distribution, ExponentialDecay, StaticDecay,
                        _integer, init_state, outcome_tables, run, sample_schedule)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproducible experiment needs, checked when made.

    Each integer field is kept as the Python int that ``operator.index``
    makes of it, and one that is not an integer is a ``ValueError``.  So is
    a field out of range, named: ``sample_from`` or ``watchdog`` not one of
    its values, ``repetitions`` or ``samples`` below 1, a negative ``seed``,
    ``n_events`` outside ``0..MAX_EVENTS``, and whatever
    ``ArithParams.range_problem`` refuses of n, x and q.  A base sharing a
    factor with n passes, for the gcd shortcut.
    """

    n: int = 15
    x: int = 7
    q: int = 130
    n_events: int = 10
    law: StaticDecay | ExponentialDecay = ExponentialDecay(2.5)
    watchdog: str = "on"
    seed: int = 1
    repetitions: int = 1
    samples: int = 20
    sample_from: str = "ned"  # or "ed": post-select runs with clean scratch

    def __post_init__(self):
        for name in ("n", "x", "q", "n_events", "seed", "repetitions", "samples"):
            value = getattr(self, name)
            object.__setattr__(self, name, _integer(value, f"{name}={value!r}"))
        for name, ok, rule in [
                ("sample_from", self.sample_from in ("ned", "ed"), "be 'ned' or 'ed'"),
                ("watchdog", self.watchdog in ("off", "on", "strict"),
                 "be 'off', 'on' or 'strict'"),
                ("repetitions", self.repetitions >= 1, "be at least 1"),
                ("samples", self.samples >= 1, "be at least 1"),
                ("seed", self.seed >= 0, "be at least 0"),
                ("n_events", 0 <= self.n_events <= MAX_EVENTS,
                 f"lie in 0..{MAX_EVENTS}")]:
            if not ok:
                raise ValueError(f"{name} must {rule}, got {getattr(self, name)!r}")
        if problem := ArithParams.range_problem(self.n, self.x, self.q):
            raise ValueError(f"{problem[0]}: {problem[1]}")


@dataclass(frozen=True)
class SampleTrace:
    c: int
    r2: int
    convergents: tuple[tuple[int, int], ...]
    verified_order: int | None


@dataclass
class RepetitionResult:
    ned: Distribution
    ed: Distribution
    samples: list[SampleTrace]
    order: int | None
    factors: set[int] | None


@dataclass
class FactorReport:
    n: int
    x: int
    q: int
    order: int | None
    factors: set[int] | None
    repetitions: list[RepetitionResult] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_json(self) -> str:
        samples = [{"c": s.c, "r2": s.r2,
                    "convergents": [list(cv) for cv in s.convergents],
                    "verified_r": s.verified_order}
                   for rep in self.repetitions for s in rep.samples]
        payload = {"order": self.order,
                   "factors": sorted(self.factors) if self.factors else None,
                   "samples": samples, "stats": self.stats}
        return json.dumps(payload, sort_keys=True)


def ideal_distribution(n: int, x: int, q: int) -> Distribution:
    """Noise-free outcome table from the closed form of the geometric sum.

    The M = (q - 1 - k) // r + 1 exponents a < q in the class of x**k, r
    the order of x, give P(c, x**k) = (sin(pi M f / q) / sin(pi f / q))**2
    / q**2 with f = r c mod q, an exact integer, and M**2 / q**2 where
    f = 0.  One column per class, so time and memory grow as q, not q**2;
    ``oracles.outcome_table_oracle`` sums the same phases two other ways.
    """
    r = multiplicative_order(x, n)
    table = np.zeros((q, 1 << n.bit_length()))
    f = np.arange(q, dtype=np.int64) * r % q
    hit = f == 0
    below = np.sin(np.pi * f / q)
    below[hit] = 1.0
    for k in range(min(r, q)):
        m = (q - 1 - k) // r + 1
        # sin(pi t / q) has period 2q in t: reduce the exact product first
        ratio = np.sin(np.pi * (m * f % (2 * q)) / q) / below
        ratio[hit] = m
        table[:, pow(x, k, n)] = (ratio / q) ** 2
    return Distribution(table, "exact")


def convergents(p: int, q: int) -> list[tuple[int, int]]:
    """All continued-fraction convergents of p/q, starting from 0/1."""
    num0, num1 = 1, 0
    den0, den1 = 0, 1
    out = []
    while q:
        k = p // q
        p, q = q, p - k * q
        num0, num1 = k * num0 + num1, num0
        den0, den1 = k * den0 + den1, den0
        out.append((num0, den0))
    return out


def continued_fraction_order(c: int, q: int, n: int, x: int,
                             ) -> tuple[int | None, list[tuple[int, int]]]:
    """Recover the order of x mod n from a measured first-register value.

    Expands c/q in continued fractions and, for every convergent denominator
    r' below n, tests multiples m*r' < n for x**(m*r') = 1.  Multiples are
    needed because a small q can park the peak on a reduced fraction (for
    instance c = q/2).  Returns (least verified order or None, convergents
    tried).  c = 0 carries no information and always fails.
    """
    if not 0 <= c < q:
        raise ValueError(f"measured value {c} outside [0, {q})")
    if c == 0:
        return None, []
    tried = convergents(c, q)
    found = set()
    for _, denom in tried:
        if denom >= n or denom == 0:
            continue
        multiple = denom
        while multiple < n:
            if modpow(x, multiple, n) == 1:
                found.add(multiple)
                break
            multiple += denom
    return (min(found) if found else None), tried


def extract_factors(x: int, r: int, n: int) -> tuple[set[int] | None, str | None]:
    """Turn a verified order into factors of n, or explain why it cannot.

    Returns (factors, None) on success; (None, reason) when r is odd or
    x**(r/2) = -1 (mod n), the two cases the gcd trick cannot use.  An r
    below 1 or with x**r != 1 (mod n) is a ``ValueError``.
    """
    if r < 1 or modpow(x, r, n) != 1:
        raise ValueError(f"{r} is not a valid order of {x} mod {n}")
    if r % 2 == 1:
        return None, "r odd"
    half = modpow(x, r // 2, n)
    if half == n - 1:
        return None, "x^(r/2) = -1 (mod n)"
    return {math.gcd(half - 1, n), math.gcd(half + 1, n)}, None


def _sample_outcomes(dist: Distribution, count: int,
                     rng: np.random.Generator) -> list[tuple[int, int]]:
    flat = dist.table.ravel()
    total = flat.sum()
    if total <= 0:
        return []
    picks = rng.choice(flat.size, size=count, p=flat / total)
    width = dist.table.shape[1]
    return [(int(p) // width, int(p) % width) for p in picks]


def repetition_seeds(cfg: ExperimentConfig) -> list[int]:
    """Each repetition's seed, for its noise schedule and its samples."""
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.repetitions)]


def run_experiment(cfg: ExperimentConfig) -> FactorReport:
    """Full pipeline: pre-checks, simulated runs, sampling, factor extraction.

    A base sharing a factor with n short-circuits before any quantum work.
    Otherwise the exponentiation network is built once and every repetition
    gets its own derived seed, noise schedule and measurement samples.
    """
    n, x = cfg.n, cfg.x
    if n % 2 == 0 or _is_prime(n):
        warnings.warn(f"n={n} is even or prime; the run is only a demonstration",
                      stacklevel=2)
    g = math.gcd(x, n)
    if g != 1:
        return FactorReport(n, x, cfg.q, None, {g, n // g},
                            stats={"shortcut": f"gcd({x}, {n}) = {g}",
                                   "success_rate": 1.0})

    params = ArithParams.create(n, x, cfg.q)
    layout = RegisterLayout.for_factoring(params.bits, q=cfg.q)
    net = build_modexp(params, layout)

    cached = None
    report = FactorReport(n, x, cfg.q, None, None)
    successes = 0
    orders: dict[int, int] = {}
    for rep_seed in repetition_seeds(cfg):
        if cfg.n_events == 0 and cached is not None:
            ned, ed = cached
        else:
            schedule = sample_schedule(cfg.n_events, layout.qubit_count,
                                       rep_seed, cfg.law)
            state = run(init_state(cfg.q, layout), net, schedule, cfg.watchdog)
            ned, ed = outcome_tables(state, layout, cfg.q)
            if cfg.n_events == 0:
                cached = (ned, ed)
        rep_rng = np.random.default_rng(rep_seed)
        source = ned if cfg.sample_from == "ned" else ed
        traces = []
        rep_order = None
        for c, r2 in _sample_outcomes(source, cfg.samples, rep_rng):
            order, tried = continued_fraction_order(c, cfg.q, n, x)
            traces.append(SampleTrace(c, r2, tuple(tried), order))
            if order is not None and rep_order is None:
                rep_order = order
        factors = None
        if rep_order is not None:
            orders[rep_order] = orders.get(rep_order, 0) + 1
            factors, _reason = extract_factors(x, rep_order, n)
            if factors and any(1 < f < n for f in factors):
                successes += 1
            else:
                factors = None
        report.repetitions.append(RepetitionResult(ned, ed, traces,
                                                   rep_order, factors))
    report.order = min((o for o, cnt in orders.items()
                        if cnt == max(orders.values())), default=None)
    for rep in report.repetitions:
        if rep.factors:
            report.factors = rep.factors
            break
    report.stats = {"repetitions": cfg.repetitions,
                    "samples_per_repetition": cfg.samples,
                    "success_rate": successes / max(cfg.repetitions, 1),
                    "orders_seen": orders}
    return report


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True
