"""Schatten r-norms of the Green operator: finite exactly when r > n.

The demo certifies both sides of the boundary for n = 2:

* r = 3: an exact partial sum plus lower and upper tail bounds give a
  rigorous two-sided bracket for ||G||_3^3;
* r = 2: the rigorous lower bound keeps growing under cutoff doubling (it
  only grows logarithmically, so the doublings run far past direct
  summation -- a short direct head plus an Euler-Maclaurin bracket keeps each step O(1)).
"""

from kohn_spectra.schatten import (
    approx_formula,
    lower_bound_sum,
    partial_sum,
    tail_lower_bound,
    tail_upper_bound,
    verdict,
)

n = 2
print(f"=== ||G||_r on S^{2 * n - 1} (n = {n}): finite iff r > {n} ===\n")

r = 3
print(f"r = {r}: verdict {verdict(n, r)}")
for cutoff in (25, 50, 100, 200):
    exact = float(partial_sum(n, r, cutoff, cutoff))
    low = exact + tail_lower_bound(n, r, cutoff, cutoff)
    high = exact + tail_upper_bound(n, r, cutoff, cutoff)
    print(
        f"  cutoff {cutoff:>4}: ||G||_3^3 in [{low:.10f}, {high:.10f}]"
        f"   (width {high - low:.1e})"
    )
print(f"  closed-form approximation: {approx_formula(n, r):.6f} (uncertified, for scale)")

print(f"\nr = {n}: verdict {verdict(n, n)}; lower bound under cutoff doubling:")
cutoff = 100
base = lower_bound_sum(n, n, cutoff, cutoff)
print(f"  cutoff 10^2: {base:.4f}")
for exponent in (4, 8, 12, 16, 20):
    c = 10**exponent
    value = lower_bound_sum(n, n, c, c)
    print(f"  cutoff 10^{exponent}: {value:.4f}")
print("  ... grows like log(cutoff) forever: the norm is infinite at r = n.")
