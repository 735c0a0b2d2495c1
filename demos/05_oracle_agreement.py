# The two routes to strong regularity agree, including on Paley graphs.
#
# Route one computes exact character sums and reads the spectrum.
# Route two never touches a character: it counts, for one d in each
# class, the number of pairs (x, y) in D x D with x - y = d (the count is
# constant on each class), and checks the count is constant on D and
# constant off D.  The two routes share no code beyond the field
# tables, which is what makes their agreement a real check rather than
# a tautology.

import random

from cyclosrg import (
    build_field,
    classify,
    difference_count_oracle,
    srg_from_spectrum,
)

# Paley graphs: N = 2, D = the squares.  For q = 1 mod 4 this is the
# classical conference graph with irrational eigenvalues
# (-1 +- sqrt(q))/2; the certificate flags that case instead of
# inventing integer eigenvalues.

for q in (5, 13, 17, 29):
    fld = build_field(q, 1)
    cm = classify(fld, 2)
    cert = difference_count_oracle(cm, (0,))
    print(f"Paley({q}):", cert.parameters(), "irrational:", cert.irrational)

# q = 9 works through the field extension and has integer spectrum.

cm = classify(build_field(3, 2), 2)
cert = difference_count_oracle(cm, (0,))
print("Paley(9):", cert.parameters(), "r, s =", (cert.r, cert.s))

# Random symmetric unions: sample class unions closed under negation
# and confirm both routes give the same verdict, strongly regular or
# not.  Small fields are rich in strongly regular unions, but plenty of
# draws are not; agreement on the negative answer matters as much as
# on the positive one.

rng = random.Random(11)
agreements = 0
srg_count = 0
for trial in range(40):
    p, f = rng.choice(((2, 4), (2, 6), (3, 4), (5, 2), (2, 8), (7, 2), (13, 1)))
    fld = build_field(p, f)
    q = fld.q
    options = [n for n in (2, 3, 5, 6, 15) if (q - 1) % n == 0]
    if not options:
        continue
    cm = classify(fld, rng.choice(options))
    N = cm.N
    shift = cm.negation_shift
    orbits = sorted({tuple(sorted({i, (i + shift) % N})) for i in range(N)})
    chosen = [orb for orb in orbits if rng.random() < 0.5] or [orbits[0]]
    D = tuple(sorted({i for orb in chosen for i in orb}))
    sums = cm.connection_sums(D)
    k = len(D) * (q - 1) // N
    by_spectrum = srg_from_spectrum(q, k, sums)
    by_oracle = difference_count_oracle(cm, D)
    same = (by_spectrum is None) == (by_oracle is None) and (
        by_spectrum is None or by_oracle.same_graph_data(by_spectrum)
    )
    agreements += same
    srg_count += by_spectrum is not None
    assert same, (p, f, N, D)

print(f"\n{agreements} / 40 random unions agree across both routes "
      f"({srg_count} were strongly regular)")
print("oracle agreement demo done")
