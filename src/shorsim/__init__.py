"""Toffoli-network construction and sparse dissipative simulation of
Shor's factoring algorithm."""
from .arithmetic import (ArithParams, ResourceReport, build_adder,
                         build_bit_adder, build_controlled_multiplier,
                         build_mod_adder, build_modexp, controlled_swap,
                         gate_count_formula, mod_inverse, resource_estimate)
from .gates import (Checkpoint, Network, RegisterLayout, apply_network,
                    apply_network_batch, concatenate, gate_masks,
                    network_from_text, network_to_text, validate_network)
from .oracles import (exhaustive_network_check, modpow, multiplicative_order,
                      outcome_table_oracle)
from .pipeline import (ExperimentConfig, FactorReport, continued_fraction_order,
                       extract_factors, ideal_distribution, run_experiment)
from .simulator import (DecayEvent, Distribution, ExponentialDecay,
                        NoiseSchedule, SparseState, StaticDecay, apply_decay,
                        distribution_ed, distribution_ned, dump_state,
                        event_records, fourier_first_register, init_state,
                        inverse_fourier_first_register, outcome_tables, run,
                        sample_schedule)

__all__ = [name for name in dir() if not name.startswith("_")]
