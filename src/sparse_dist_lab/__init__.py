"""Estimation of sparse discrete distributions from privatized or
bit-budgeted messages, with executable minimax lower bounds and a seeded
experiment harness.

The package is organized around one pipeline per scheme (encode per user,
aggregate, invert, project) plus the machinery to check what no scheme can
do (chi-squared contraction over a packing family). See the README for the
map.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundReport,
    Channel,
    comm_stage_sizes,
    expected_chisq_over_packing,
    hamming_ball_count,
    implied_sample_lower_bound,
    ldp_risk_bound,
    mutual_info_bound,
    packing_gap,
    planned_sample_size,
    random_lbit_channel,
    randomized_response_channel,
    verification_suite,
    verify_ldp,
)
from .comm_hash import (
    CommMessage,
    HashScheme,
    b_of,
    comm_decode,
    comm_encode,
    comm_encode_batch,
    comm_run,
    comm_run_details,
    effective_ell,
    hash_eval,
    hash_eval_batch,
    pack_values,
    preimage_counts,
    unpack_values,
)
from .core import (
    Distribution,
    PackingIndex,
    RandomStream,
    chi_square,
    enumerate_packing_indices,
    induced_output_dist,
    make_packing_dist,
    make_uniform_sparse,
    packing_reference_dist,
    sample_iid,
    tv_distance,
)
from .hadamard import entry, fwht, hadamard_dim, in_column_set
from .hadamard_response import (
    HRFractions,
    HRMessage,
    hr_aggregate,
    hr_channel_matrix,
    hr_decode,
    hr_decode_raw,
    hr_encode,
    hr_expected_fractions,
    hr_run,
    hr_simulate_fractions,
)
from .harness import ExperimentConfig, TrialResult, run_grid, run_trial, summarize
from .projection import project_simplex, project_sparse_simplex
from .rappor import RapporMessage, rappor_channel_matrix, rappor_encode, rappor_estimate, rappor_run

__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
