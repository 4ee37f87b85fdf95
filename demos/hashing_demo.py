"""The public-coin ell-bit hashing scheme, stage by stage.

Every user hashes their sample through a personal random hash function (keyed
by shared public randomness and the user's index) and sends only the ell-bit
bucket value. The server counts, for each candidate symbol, how many messages
are consistent with it; true symbols collect systematically more matches. The
first half of users identifies a candidate support, the second half gives an
unbiased estimate on it. A run draws those counts from their exact law under
an ideal hash, so no message is built here.
"""

import numpy as np

from sparse_dist_lab.comm_hash import comm_run_stack, effective_ell
from sparse_dist_lab.core import derive_key, tv_distance, uniform_sparse_stack


def main():
    k, s, ell, n = 1000, 8, 3, 100000
    key = derive_key(7, 0)

    ell_eff = effective_ell(ell, s)
    buckets = 1 << ell_eff
    print(f"k={k}, s={s}, raw ell={ell} -> effective ell = {ell_eff} ({buckets} buckets)")
    print("(buckets beyond ~2s buy nothing, so wider messages are truncated)\n")

    # the package's runs take a (B, k) stack of targets, one stream key per row
    P = uniform_sparse_stack(k, s, [derive_key(key, 0)])
    target = P[0]
    support = set(np.nonzero(target)[0].tolist())

    # a message is consistent with its sender's symbol, and with any other
    # symbol when the two hash to the same bucket (probability 1/buckets)
    b_support = (1 / s) * (1 - 1 / buckets) + 1 / buckets
    print(f"consistency prob for a support symbol: b(p) = p(1 - 1/B) + 1/B = {b_support:.4f}")
    print(f"                 for a null symbol:    b(0) = 1/B = {1 / buckets:.4f}")
    print(f"expected preimage size of one message: 1 + (k-1)/B = {1 + (k - 1) / buckets:.1f} symbols\n")

    # the full two-stage protocol
    T, raw, estimate = (rows[0] for rows in comm_run_stack(P, n, ell, s, [derive_key(key, 2)]))
    print(f"full run at n = {n}:")
    print(f"  candidate support T (top {len(T)} by stage-1 counts) captures "
          f"{len(support & set(T.tolist()))}/{s} true symbols")
    print(f"  mass of p on T: {target[T].sum():.4f}")
    print(f"  in-support l1 error of the raw estimate: {np.abs(raw[T] - target[T]).sum():.4f}")
    print(f"  TV error after projection: {tv_distance(estimate, target):.4f}\n")

    # an ell past the cap is the same protocol, so on the same stream it
    # replays the capped run exactly
    print("TV error by raw ell (one run each, on the same stream):")
    for bits in range(1, 7):
        run = comm_run_stack(P, n, bits, s, [derive_key(key, 3)])[2][0]
        print(f"  ell = {bits} (effective {effective_ell(bits, s)}): {tv_distance(run, target):.4f}")


if __name__ == "__main__":
    main()
