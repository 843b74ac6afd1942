"""Best constants in the Sobolev gain estimate ||G f||_{s+1} <= C ||f||_s.

The squared constant is the maximum of the exact sequence

    (1 + k(k+2n-2)) / (4 (k+n-2)^2),    k = 1, 2, ...

which peaks at the integer critical degree k* = n^2 - 3n + 1 for n >= 3
(and at k = 1 for n = 2, where C = 1).  Two closed forms for C_n^2
circulate; they disagree for every n >= 3, and the certified maximum
decides: it confirms n(n-2)/(4(n^2-2n-1)) and refutes n(n-2)/(4(n-1)^2).
"""

from kohn_spectra import Polynomial, best_constant, harmonic_basis, sobolev_gain_certificate
from kohn_spectra.sobolev import equality_bidegree, ratio

print("the ratio sequence for n = 3 (exact rationals):")
for k in (1, 2, 3, 5, 10, 100):
    print(f"  k = {k:>3}:  {ratio(3, 1, k)}")
print("  -> decreasing from k* = 1 toward the limit 1/4\n")

print("best constants (certified maximum; both display candidates flagged):")
print(f"  {'n':>2} {'c^2':>12} {'argmax k':>9} {'n(n-2)/(4(n^2-2n-1))':>21} {'n(n-2)/(4(n-1)^2)':>18}")
for n in range(2, 9):
    rep = best_constant(n)
    print(
        f"  {n:>2} {str(rep.c_squared):>12} {rep.argmax_k:>9} "
        f"{str(rep.matches_proof_display):>21} {str(rep.matches_theorem_display):>18}"
    )

print("""
Equality in ||G f||_1 <= C ||f||_0 happens exactly on one eigenspace.
For n = 2 that is the bidegree (0,1) cell:""")
cert = sobolev_gain_certificate(2, Polynomial.z_bar(2, 1), 0)
print(f"  f = zb1:  ||G f||_1^2 = {cert.green_norm_squared} == C^2 ||f||_0^2 = {cert.bound}")

n = 4
locus = equality_bidegree(n)
element = harmonic_basis(n, locus).elements[0]
cert = sobolev_gain_certificate(n, element, 0)
print(f"\nFor n = {n} the locus is bidegree ({locus.p},{locus.q}); one basis element gives")
print(f"  equality: {cert.equality}, ratio = {cert.ratio}")

off = harmonic_basis(n, (0, 1)).elements[0]
cert = sobolev_gain_certificate(n, off, 0)
print(f"while a (0,1) element stays strictly inside: ratio = {cert.ratio} < 1")
