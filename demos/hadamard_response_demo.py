"""Walk through the one-bit Hadamard response pipeline on a sparse target.

Each user holds one sample from an s-sparse distribution over [k] and sends a
single privatized bit: a noisy indicator of whether their symbol lies in the
Hadamard column set assigned to their group. The server averages the bits per
group, inverts the response map with a fast transform, and projects the
intermediate estimate onto the simplex -- either the full simplex or its
s-sparse subset. Run it to see why the sparse projection is the better decoder
when the target really is sparse.
"""

import numpy as np

from sparse_dist_lab.core import derive_key, tv_distance, uniform_sparse_stack
from sparse_dist_lab.hadamard import hadamard_dim
from sparse_dist_lab.hadamard_response import hr_decode_raw, hr_draw_fractions
from sparse_dist_lab.projection import project_simplex_vec, top_s_indices


def main():
    k, s, eps, n = 1000, 8, 1.0, 200000
    key = derive_key(2024, 0)

    # the package's runs take a (B, k) stack of targets, one stream key per row
    P = uniform_sparse_stack(k, s, [derive_key(key, 0)])
    target = P[0]
    support = np.nonzero(target)[0]
    print(f"target: uniform over {s} of {k} symbols, support {support.tolist()}")
    print(f"block size K = {hadamard_dim(k)} (group count; one bit per user)")

    fracs = hr_draw_fractions(P, n, eps, [derive_key(key, 1)])
    print(f"\nsimulated n = {n} users at epsilon = {eps}")
    print(f"group fractions: min {fracs.min():.4f}, max {fracs.max():.4f}")

    raw = hr_decode_raw(fracs, eps, k)
    tilde = raw[0]
    print("\npre-projection estimate (signed, noisy):")
    print(f"  mass on true support  {tilde[support].sum():+.4f}")
    print(f"  largest off-support   {np.delete(tilde, support).max():+.4f}")
    print(f"  most negative entry   {tilde.min():+.4f}")

    # project onto the simplex over the top s entries T, and over all k; an
    # estimate is its values on its support, and 0 off it
    T = top_s_indices(tilde, s)
    est_sparse = project_simplex_vec(tilde[T])
    est_dense = project_simplex_vec(tilde)
    print("\nprojection comparison (same group fractions):")
    print(f"  sparse projection  TV error {tv_distance(target, T, est_sparse):.4f}")
    print(f"  dense projection   TV error {tv_distance(target, np.arange(k), est_dense):.4f}")
    found = T[est_sparse > 0]
    print(f"  sparse decoder support {found.tolist()}")
    print(f"  support recovered: {set(found) == set(support)}")


if __name__ == "__main__":
    main()
