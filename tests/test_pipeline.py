from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from shorsim import (ExperimentConfig, continued_fraction_order,
                     extract_factors, ideal_distribution, run_experiment)
from shorsim.cli import parse_config
from shorsim.oracles import (direct_outcome_table, folded_outcome_table,
                             outcome_table_oracle)
from shorsim.pipeline import ConfigError, convergents
from shorsim.simulator import Distribution, StaticDecay


class TestIdealDistribution:
    def test_interior_peaks_and_separation(self):
        slice7 = ideal_distribution(15, 7, 130).table[:, 7]
        interior = slice7[1:129]
        peaks = [c for c in range(1, 129)
                 if slice7[c] >= slice7[c - 1] and slice7[c] >= slice7[c + 1]
                 and slice7[c] > 0.3 * interior.max()]
        # merge plateau neighbours
        merged = [peaks[0]]
        for c in peaks[1:]:
            if c - merged[-1] > 2:
                merged.append(c)
        assert len(merged) == 3
        separations = np.diff(merged)
        assert all(abs(s - 130 / 4) <= 1.0 for s in separations)

    def test_slice_equals_full_table_column(self):
        # The closed form is not the oracle's sum term by term, so the two
        # agree to rounding, not bit for bit (see the test below).
        full = ideal_distribution(15, 7, 130)
        assert isinstance(full, Distribution) and full.variant == "exact"
        assert np.max(np.abs(full.table[:, 7]
                             - outcome_table_oracle(15, 7, 130)[:, 7])) <= 1e-12

    @pytest.mark.parametrize("n, x, q", [(15, 7, 130), (15, 4, 130), (21, 2, 50),
                                         (15, 2, 64), (15, 7, 132), (21, 2, 441)])
    def test_closed_form_within_1e_12_of_both_oracle_routes(self, n, x, q):
        table = ideal_distribution(n, x, q).table
        for route in (direct_outcome_table, folded_outcome_table):
            assert np.max(np.abs(table - route(n, x, q))) <= 1e-12, route.__name__
        assert abs(table.sum() - 1.0) <= 1e-12

    def test_closed_form_at_the_largest_q_is_one_column_per_class(self):
        # N=33, x=7 has order 10: at q = 65536 the oracle routes would make a
        # 6554 x 65536 complex outer product per class, or 2^32 Python terms
        tracemalloc.start()
        try:
            table = ideal_distribution(33, 7, 65536).table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * table.nbytes
        assert np.count_nonzero(table.any(axis=0)) == 10
        assert abs(table.sum() - 1.0) <= 1e-12

    def test_unattained_residue_column_is_zero(self):
        # 7**a mod 15 takes only the values 1, 7, 4 and 13
        table = ideal_distribution(15, 7, 130).table
        assert np.all(table[:, 2] == 0.0)
        assert np.flatnonzero(table.sum(axis=0)).tolist() == [1, 4, 7, 13]

    def test_order_one_concentrates_at_zero(self):
        slice1 = ideal_distribution(15, 1, 130).table[:, 1]
        assert slice1[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(slice1[1:] <= 1e-12)

    def test_modulus_below_two_refused(self):
        # unchecked, the order search looped forever
        with pytest.raises(ValueError, match="^modulus n=1 must be at least 2$"):
            ideal_distribution(1, 2, 8)


class TestContinuedFractions:
    def test_convergents_of_33_over_130(self):
        assert convergents(33, 130) == [(0, 1), (1, 3), (1, 4), (16, 63),
                                        (33, 130)]

    def test_peak_sample_recovers_the_order(self):
        order, tried = continued_fraction_order(33, 130, 15, 7)
        assert order == 4
        assert (1, 4) in tried

    def test_half_q_needs_a_denominator_multiple(self):
        # 65/130 reduces to 1/2; 7^2 = 49 = 45+4 != 1 but 7^4 = 1
        order, tried = continued_fraction_order(65, 130, 15, 7)
        assert order == 4
        assert (1, 2) in tried

    def test_zero_sample_is_uninformative(self):
        assert continued_fraction_order(0, 130, 15, 7)[0] is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            continued_fraction_order(130, 130, 15, 7)

    def test_near_peak_values_recover_order_for_coprime_multiples(self):
        # peaks sit near d*q/r for d coprime to r = 4
        for d in (1, 3):
            for c in (round(d * 130 / 4), math.floor(d * 130 / 4),
                      math.ceil(d * 130 / 4)):
                order, _ = continued_fraction_order(c, 130, 15, 7)
                assert order == 4, f"failed at c={c}"

    def test_any_returned_order_is_verified(self):
        for c in range(1, 130):
            order, _ = continued_fraction_order(c, 130, 15, 7)
            if order is not None:
                assert pow(7, order, 15) == 1


class TestExtractFactors:
    def test_standard_instance(self):
        # 7^2 = 49 = 4 (mod 15); gcd(3, 15) = 3, gcd(5, 15) = 5
        factors, reason = extract_factors(7, 4, 15)
        assert factors == {3, 5} and reason is None

    def test_odd_order_fails(self):
        # 4^3 = 64 = 1 (mod 21)
        factors, reason = extract_factors(4, 3, 21)
        assert factors is None and reason == "r odd"

    def test_half_power_minus_one_fails(self):
        # 14 = -1 (mod 15), order 2
        factors, reason = extract_factors(14, 2, 15)
        assert factors is None and "-1" in reason

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            extract_factors(7, 3, 15)

    @pytest.mark.parametrize("r", [0, -4])
    def test_order_below_one_rejected(self, r):
        # unchecked, pow(7, r, 15) is 1 for both, and r = -4 gave {3, 5}
        # and r = 0 gave {1, 15}
        with pytest.raises(ValueError, match=f"^{r} is not a valid order of 7 mod 15$"):
            extract_factors(7, r, 15)

    def test_factors_always_divide(self):
        for x in (2, 4, 7, 8, 11, 13):
            r = next(r for r in range(1, 15) if pow(x, r, 15) == 1)
            factors, reason = extract_factors(x, r, 15) if r % 2 == 0 else (None, "r odd")
            if factors:
                assert all(15 % f == 0 for f in factors)


# An ExperimentConfig field out of range and the ValueError it raises.
CONFIG_REFUSALS = [
    ("sample_from", "ED", "sample_from must be 'ned' or 'ed', got 'ED'"),
    ("sample_from", "nde", "sample_from must be 'ned' or 'ed', got 'nde'"),
    ("sample_from", "", "sample_from must be 'ned' or 'ed', got ''"),
    ("repetitions", -1, "repetitions must be at least 1, got -1"),
    ("repetitions", 0, "repetitions must be at least 1, got 0"),
    ("samples", -1, "samples must be at least 1, got -1"),
    ("samples", 0, "samples must be at least 1, got 0"),
    ("n_events", -1, "n_events must lie in 0..63, got -1"),
    ("n_events", 64, "n_events must lie in 0..63, got 64"),
    ("seed", -1, "seed must be at least 0, got -1"),
    ("watchdog", "bogus", "watchdog must be 'off', 'on' or 'strict', got 'bogus'"),
    # n, x and q as ArithParams.range_problem refuses them, before the gcd
    # shortcut: unchecked, x=15, 0 or 30 "factored" 15 into {1, 15}
    ("n", 2, "n: cannot factor 2"),
    ("x", 15, "x: base 15 must lie strictly between 1 and 15"),
    ("x", 0, "x: base 0 must lie strictly between 1 and 15"),
    ("x", 30, "x: base 30 must lie strictly between 1 and 15"),
    ("q", 1, "q: q must lie in 2..65536, got 1"),
    ("q", 65537, "q: q must lie in 2..65536, got 65537"),
    # integer fields that are not integers: unchecked, they failed deep in
    # the run with an AttributeError or a TypeError
    ("n", 15.0, "n=15.0 must be an integer"),
    ("x", "7", "x='7' must be an integer"),
    ("q", 130.5, "q=130.5 must be an integer"),
    ("n_events", 2.5, "n_events=2.5 must be an integer"),
    ("seed", 1.5, "seed=1.5 must be an integer"),
    ("repetitions", 2.5, "repetitions=2.5 must be an integer"),
    ("samples", 2.5, "samples=2.5 must be an integer"),
    # a law without a persistence probability, through NoiseSchedule's check:
    # unchecked, law=None died in the run with an AttributeError
    ("law", None, "law=None has no callable persist_probability"),
    ("law", "x", "law='x' has no callable persist_probability"),
    # a law class: unchecked, its unbound persist_probability passed, and
    # the run died with a TypeError for the missing argument
    ("law", StaticDecay, f"law={StaticDecay!r} is a class, not a law")]


class TestRunExperiment:
    def test_noiseless_factoring_succeeds(self):
        cfg = ExperimentConfig(n=15, x=7, q=130, n_events=0, seed=11,
                               repetitions=5, samples=20)
        report = run_experiment(cfg)
        assert report.order == 4
        assert report.factors == {3, 5}
        assert report.stats["success_rate"] == 1.0

    def test_shared_factor_shortcuts_without_a_quantum_run(self):
        report = run_experiment(ExperimentConfig(n=15, x=5, q=130))
        assert report.factors == {3, 5}
        assert report.repetitions == []
        assert "shortcut" in report.stats

    def test_success_probability_over_random_bases(self):
        # the textbook bound for two prime factors is 1 - 1/2^(k-1) = 1/2;
        # counting over all coprime bases of 15 the true fraction is higher
        k = 2
        assert 1 - 1 / 2 ** (k - 1) == 0.5
        good = 0
        bases = [x for x in range(2, 15) if math.gcd(x, 15) == 1]
        for x in bases:
            r = next(r for r in range(1, 15) if pow(x, r, 15) == 1)
            if r % 2 == 0:
                factors, _ = extract_factors(x, r, 15)
                if factors and any(1 < f < 15 for f in factors):
                    good += 1
        assert good / len(bases) >= 0.5

    def test_random_base_path(self):
        # parse_config resolves --x random; seed 3 draws 12, which shares 3
        # with 15
        cfg, _ = parse_config(["run", "--x", "random", "--seed", "3",
                               "--events", "0"])
        report = run_experiment(cfg)
        assert report.x == 12 and report.factors == {3, 5}
        assert report.stats["shortcut"] == "gcd(12, 15) = 3"

    def test_prime_modulus_warns_but_runs(self):
        with pytest.warns(UserWarning):
            run_experiment(ExperimentConfig(n=13, x=2, q=16, n_events=0,
                                            repetitions=1, samples=3))

    def test_report_json_schema(self):
        cfg = ExperimentConfig(n=15, x=7, q=130, n_events=0, seed=11,
                               repetitions=2, samples=5)
        payload = json.loads(run_experiment(cfg).to_json())
        assert set(payload) == {"order", "factors", "samples", "stats"}
        assert payload["factors"] == [3, 5]
        assert len(payload["samples"]) == 10
        assert set(payload["samples"][0]) == {"c", "r2", "convergents",
                                              "verified_r"}

    @pytest.mark.parametrize("field, value, message", CONFIG_REFUSALS,
                             ids=[f"{field}={value}" for field, value, _ in CONFIG_REFUSALS])
    def test_field_out_of_range_refused(self, field, value, message):
        # refused when the config is made, so before any simulation
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as err:
            ExperimentConfig(**{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("repetitions", 1), ("samples", 1), ("n_events", 0), ("n_events", 63),
        ("watchdog", "off"), ("watchdog", "strict"), ("seed", 0)])
    def test_field_at_the_edge_of_its_range_accepted(self, field, value):
        assert getattr(ExperimentConfig(**{field: value}), field) == value

    def test_numpy_integer_fields_kept_as_python_ints(self):
        # unchecked, n=np.int64(15) died in the run on n.bit_length()
        names = ("n", "x", "q", "n_events", "seed", "repetitions", "samples")
        cfg = ExperimentConfig(n=np.int64(15), x=np.uint8(7), q=np.int32(16),
                               n_events=np.int16(2), seed=np.uint64(3),
                               repetitions=np.int8(2), samples=np.int64(3))
        assert [type(getattr(cfg, name)) for name in names] == [int] * len(names)
        assert [getattr(cfg, name) for name in names] == [15, 7, 16, 2, 3, 2, 3]
        assert len(run_experiment(cfg).repetitions) == 2

    def test_shared_factor_base_in_range_still_shortcuts(self):
        # x=5 passes the range check; q=1 with it no longer does
        assert ExperimentConfig(x=5).x == 5
        with pytest.raises(ValueError, match="^q: q must lie in 2..65536, got 1$"):
            ExperimentConfig(x=5, q=1)

    @pytest.mark.parametrize("law", [None, "x"])
    def test_law_refused_before_the_gcd_shortcut(self, law):
        # unchecked, x=5 "factored" 15 through the shortcut with any law
        with pytest.raises(ConfigError, match="has no callable persist_probability$"):
            ExperimentConfig(x=5, law=law)

    def test_noisy_run_with_ed_sampling(self):
        cfg = ExperimentConfig(n=15, x=7, q=16, n_events=3,
                               law=StaticDecay(0.5), watchdog="on", seed=5,
                               repetitions=2, samples=5, sample_from="ed")
        report = run_experiment(cfg)
        assert len(report.repetitions) == 2
        for rep in report.repetitions:
            assert np.all(rep.ed.table <= rep.ned.table + 1e-15)
