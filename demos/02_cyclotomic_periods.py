# Cyclotomic classes, Gauss periods, and a complete strongly regular
# graph verification.
#
# Fix N dividing q - 1.  The N cyclotomic classes are the cosets
# C_i = gamma^i <gamma^N> of the index-N subgroup of the multiplicative
# group.  Summing the additive character psi(x) = xi_p^Tr(x) over a
# class gives a Gauss period, an exact algebraic integer in Z[xi_p].
# This demo walks from the classes to the classical example: the union
# C_0 u C_5 u C_10 in F_4096 with N = 45 is a (4096, 273, 20, 18)
# strongly regular graph.

from cyclosrg import build_field, classify, difference_count_oracle, srg_from_spectrum

# Start small: F_16 with N = 5 splits the 15 nonzero elements into
# five classes of three.

fld = build_field(2, 4)
cm = classify(fld, 5)
print("class size:", cm.class_size)
for a, eta in enumerate(cm.periods()):
    print(f"  eta_{a} =", eta.to_int())

# Two identities pin the periods down.  Their sum telescopes the whole
# character sum over the field, so it is exactly -1; and the sum of
# |eta_a|^2 equals (q(N-1)+1)/N.

total = sum(eta.to_int() for eta in cm.periods())
norm = sum(eta.to_int() ** 2 for eta in cm.periods())
q, N = fld.q, cm.N
print("sum of periods:", total)
print("sum of squares:", norm, "expected", (q * (N - 1) + 1) // N)

# Now the real example.  In F_2^12 with N = 45 the connection set is
# the union of classes 0, 5, and 10; its 273 elements form the
# neighborhood of 0 in the Cayley graph.

fld = build_field(2, 12)
cm = classify(fld, 45)
D = (0, 5, 10)
sums = cm.connection_sums(D)
distinct = sorted({s.to_int() for s in sums}, reverse=True)
print("\nq = 4096, N = 45, D = classes", D)
print("distinct connection sums:", distinct)

# A Cayley graph on a union of classes is strongly regular exactly when
# those sums take two values.  The two values are the restricted
# eigenvalues, and all four parameters follow by integer arithmetic.

k = len(D) * (fld.q - 1) // cm.N
cert = srg_from_spectrum(fld.q, k, sums)
print("certificate:", cert)
assert cert.parameters() == (4096, 273, 20, 18)

# None of that used the graph itself, only character sums.  The
# difference-count oracle is the independent route: it literally counts
# representations d = x - y with x, y in the connection set and checks
# the counts are constant on and off the set.

oracle = difference_count_oracle(cm, D)
print("oracle agrees:", oracle == cert)

print("\nperiod and SRG checks passed")
