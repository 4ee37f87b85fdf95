"""Estimation of sparse discrete distributions from privatized or
bit-budgeted messages, with executable minimax lower bounds and a seeded
experiment harness.

The package is organized around one pipeline per scheme (draw the
sufficient statistic from its exact law, invert, project) plus the machinery
to check what no scheme can do (chi-squared contraction over a packing
family). It exports only what the package itself or the demos use; see the
README for the map.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundReport,
    Channel,
    comm_stage_sizes,
    expected_chisq_over_packing,
    hamming_ball_count,
    implied_sample_lower_bound,
    lbit_contraction_ceiling,
    ldp_contraction_ceiling,
    ldp_risk_bound,
    packing_gap,
    planned_sample_size,
    random_lbit_channel,
    randomized_response_channel,
    verification_suite,
    verify_ldp,
)
from .comm_hash import effective_ell
from .core import PackingIndex, derive_key, tv_distance
from .hadamard import fwht, hadamard_dim
from .hadamard_response import hr_decode_raw, hr_expected_fractions
from .harness import ExperimentConfig, TrialResult, run_grid, summarize

__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
