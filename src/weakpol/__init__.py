"""Finite-resolution polarization measurement statistics.

Simulates Gaussian pointer measurements of the s1 Stokes component on single
photons and entangled pairs, the resulting outcome densities, the signed
joint quasi-probability tables hiding behind them, and the distribution of
the CHSH correlation that explains the Bell violation.
"""

from .linalg import expectation
from .measurement import (
    LIMIT,
    OutcomeDensity,
    PointerGrid,
    SINGLE_LABELS,
    completeness_defect,
    eigenstate_density_closed_form,
    outcome_density,
)
from .polarization import (
    bell_expectation,
    bell_operator,
    bell_state,
    chsh_combination,
    classical_chsh_bound,
    stokes_eigenstate,
    stokes_operator,
)
from .quasiprob import (
    IllConditionedDesignError,
    KDistribution,
    PAIR_COLUMN_LABELS,
    PAIR_ROW_LABELS,
    QuasiProbTable,
    deconvolve,
    k_distribution,
    quasiprob_table,
    reconstruct_density,
)

__all__ = [
    "LIMIT",
    "IllConditionedDesignError",
    "KDistribution",
    "OutcomeDensity",
    "PAIR_COLUMN_LABELS",
    "PAIR_ROW_LABELS",
    "PointerGrid",
    "QuasiProbTable",
    "SINGLE_LABELS",
    "bell_expectation",
    "bell_operator",
    "bell_state",
    "chsh_combination",
    "classical_chsh_bound",
    "completeness_defect",
    "deconvolve",
    "eigenstate_density_closed_form",
    "expectation",
    "k_distribution",
    "outcome_density",
    "quasiprob_table",
    "reconstruct_density",
    "stokes_eigenstate",
    "stokes_operator",
]

__version__ = "0.1.0"
