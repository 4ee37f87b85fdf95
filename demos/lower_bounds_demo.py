"""Executable lower-bound machinery: contraction, packing, implied sample sizes.

The sample-complexity lower bounds rest on two computable quantities. First,
for any single-user channel W, the expected chi-squared divergence between
the outputs of the packing distributions p_z and their average p_0 -- small
divergence means each user's message carries little information about z.
Second, the packing gap log|Z| - log N, the effective number of well-separated
hypotheses. Together they imply a floor on n. This demo evaluates both
exactly (the first in closed form) and compares the floor against the
protocols' planned sample sizes.
"""

from sparse_dist_lab import (
    comm_sample_size,
    derive_key,
    expected_chisq_over_packing,
    implied_sample_lower_bound,
    lbit_contraction_ceiling,
    ldp_contraction_ceiling,
    ldp_sample_size,
    packing_gap,
    random_lbit_channel,
    randomized_response_channel,
    verification_suite,
    verify_ldp,
)


def main():
    k, s, alpha = 6, 2, 0.05

    print("== chi-squared contraction (exact average over all z) ==")
    for eps in (0.5, 1.0, 2.0):
        W = randomized_response_channel(k + 1, eps)
        val = expected_chisq_over_packing(W, k, s, alpha)
        bound = ldp_contraction_ceiling(eps, s, alpha)
        print(f"  randomized response, eps={eps}: E[chi2] = {val:.6f}  "
              f"(privacy bound {bound:.4f}, LDP verified: {verify_ldp(W, eps)})")
    key = derive_key(0, 1)
    for ell in (1, 2, 3):
        worst = max(
            expected_chisq_over_packing(random_lbit_channel(k + 1, ell, derive_key(key, t)), k, s, alpha)
            for t in range(20)
        )
        print(f"  worst of 20 random {ell}-bit channels: E[chi2] = {worst:.6f}  "
              f"(bucket bound {lbit_contraction_ceiling(ell, s, alpha):.2f})")

    print("\n== packing gap: log |Z_k,s| - log N (vs (s/8) log(k/s)) ==")
    for kk, ss in ((128, 1), (200, 2), (400, 4), (1000, 8)):
        rep = packing_gap(kk, ss)
        print(f"  k={kk:5d} s={ss}: gap {rep.value:8.3f} >= bound {rep.bound:6.3f}  "
              f"(ball size {rep.context['ball']})")

    print("\n== implied sample-size floor vs planned protocol sizes ==")
    kk, ss, aa = 1000, 8, 0.2
    gap = packing_gap(kk, ss).value
    for label, chisq, planned in (
        ("eps=1 (LDP)",
         ldp_contraction_ceiling(1.0, ss, aa),
         ldp_sample_size(kk, ss, aa, 1.0)),
        ("ell=3 (comm)",
         lbit_contraction_ceiling(3, ss, aa),
         comm_sample_size(kk, ss, aa, 3)),
    ):
        floor = implied_sample_lower_bound(gap, chisq)
        print(f"  {label}: n >= {floor:,.0f} (contraction-bound floor), "
              f"planned n = {planned:,}")

    print("\n== full verification suite ==")
    reports = verification_suite(master_seed=0)
    ok = sum(r.satisfied for r in reports)
    print(f"  {ok}/{len(reports)} reports satisfied")


if __name__ == "__main__":
    main()
