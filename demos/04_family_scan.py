# Scanning for the prime pairs and triples behind the graph families.
#
# The constructions come in two shapes.  For a pair (p, p1) with
# N = p1^m, the union of the first p1^(m-1) classes is strongly regular
# for every m >= 1 provided p1 = 3 mod 4, p1 > 3, p generates an
# index-2 subgroup modulo p1^2, and 1 + p1 = 4 p^h with h the class
# number of Q(sqrt(-p1)).  For a triple (p, p1, p2) with N = p1^m p2
# the analogous conditions involve the class number of Q(sqrt(-p1 p2)).
# Both criteria are decidable by pure integer arithmetic, so exhaustive
# scans are cheap.

from cyclosrg import scan_pairs, scan_triples

pairs = scan_pairs(50, 500)
print(f"pairs with p <= 50, p1 <= 500: {len(pairs.hits)} hits, "
      f"{len(pairs.rejections)} rejections")
for key, c in zip(pairs.hit_keys(), pairs.hits):
    print(f"  {key}: h = {c.h}, b = {c.b}, f = {c.f_m1}, r = {c.r_formula}, s = {c.s_formula}")

# Every hit carries a witness: the class number h, the pinned sign b,
# the field degree f_m1 at m = 1, and the integer eigenvalues r_m1, s_m1
# at m = 1 and r_m2, s_m2 at m = 2 computed from the closed forms.  The
# field names are the keys of scan-pairs --format json.

check = pairs.hits[0]
print(f"\nwitness for (2, 7): h = {check.h}, b = {check.b}, "
      f"m = 1 eigenvalues ({check.r_m1}, {check.s_m1}), "
      f"m = 2 eigenvalues ({check.r_m2}, {check.s_m2})")

# Rejections carry reason codes, so near misses are inspectable.
# 2 is a primitive root modulo 11, hence no index-2 structure there.

print("\nwhy (2, 11) fails:", pairs.rejection_reasons(2, 11))
print("why (2, 3) fails:", pairs.rejection_reasons(2, 3))

triples = scan_triples(5, 400)
print(f"\ntriples with p <= 5, p1 p2 <= 400: {len(triples.hits)} hits")
for key, c in zip(triples.hit_keys(), triples.hits):
    print(f"  {key}: h = {c.h}, b = {c.b}, f = {c.f_m1}, r = {c.r_formula}, s = {c.s_formula}")

# The scan is symmetric in an interesting way: both orientations of
# each unordered pair {p1, p2} pass, because the criterion treats the
# two primes differently (the exponent m sits on p1) yet both orders
# satisfy it here.

print("\nordered hits:", triples.hit_keys())

# Enlarging the box never removes a hit; the criteria are pointwise.

assert set(scan_pairs(50, 200).hit_keys()) <= set(pairs.hit_keys())
print("\nscan demo done")
