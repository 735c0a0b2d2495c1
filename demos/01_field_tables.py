# Building exact finite field tables.
#
# Everything downstream rests on one data structure: a table model of
# F_{p^f} holding the antilog array (exponent -> element encoding), its
# inverse log array, and the absolute trace of every element.  Elements
# are encoded as base-p integers, so the tables are plain numpy arrays
# and all later work is table lookups.

import numpy as np

from cyclosrg import build_field

# A field is pinned by (p, f) alone: the constructor picks the
# lexicographically smallest irreducible monic modulus and the smallest
# generator, so rebuilding always gives byte-identical tables.

fld = build_field(2, 4)
print("q =", fld.q)
print("modulus coefficients, low degree first:", fld.modulus)
print("generator gamma encodes as", fld.gamma)

# The antilog table lists gamma^0, gamma^1, ..., gamma^(q-2).  Together
# with the log table it turns multiplication into index arithmetic.

print("\npowers of gamma:", fld.antilog.tolist())
q1 = fld.q - 1
x, y = 7, 9
product = int(fld.antilog[(fld.log[x] + fld.log[y]) % q1])
inverse = int(fld.antilog[-fld.log[x] % q1])
print("log 7 =", int(fld.log[x]), "and log 9 =", int(fld.log[y]))
print("7 * 9 = antilog[(log 7 + log 9) % 15] =", product)
print("7^(-1) = antilog[-log 7 % 15] =", inverse)
assert fld.antilog[(fld.log[x] + fld.log[inverse]) % q1] == 1

# The trace map Tr(x) = x + x^p + ... + x^(p^(f-1)) lands in the prime
# field.  It is additive, Frobenius-invariant, and perfectly balanced:
# every value in {0, ..., p-1} is hit exactly q/p times.

values, counts = np.unique(fld.trace, return_counts=True)
print("\ntrace values:", values, "with counts:", counts)

# Sums go digit by digit, with no table: sub_vec subtracts encoded arrays,
# and a + b is a - (0 - b).  In characteristic 2 both are a single XOR.
# Trace additivity checked on every pair at once:

elems = np.arange(fld.q, dtype=np.int64)
sums = fld.sub_vec(elems[:, None], fld.sub_vec(0, elems)[None, :])
tr = fld.trace.astype(np.int64)
assert np.array_equal(tr[sums], (tr[:, None] + tr[None, :]) % fld.p)
diffs = fld.sub_vec(elems, np.roll(elems, 1))
print("\nsub_vec returns an array of the same shape:", diffs.shape)

# The brute-force oracle reads the Zech logarithms log(1 - gamma^n) off one
# scalar-first broadcast over the antilog table.

print("Zech logs log(1 - gamma^n):", fld.log[fld.sub_vec(1, fld.antilog)].tolist())

# Odd characteristic works the same way through digit arithmetic.

fld3 = build_field(3, 2)
print("\nF_9 modulus:", fld3.modulus)
print("F_9 powers of gamma:", fld3.antilog.tolist())
print("Tr(gamma) =", int(fld3.trace[fld3.gamma]))
minus_one = fld3.sub_vec(0, 1)
print("-1 encodes as", int(minus_one), "= p - 1, and log(-1) =", int(fld3.log[minus_one]), "= (q-1)/2")

print("\nall field table checks passed")
