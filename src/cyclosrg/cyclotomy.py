"""Cyclotomic classes of F_q* and exact character sums in Z[xi_p].

For N | q-1 the classes are C_i = gamma^i <gamma^N>, i = 0..N-1, each of
size (q-1)/N.  The additive character is psi(x) = xi_p^{Tr(x)} with
xi_p = exp(2*pi*i/p), and the Gauss periods are

    eta_a = sum over x in C_a of psi(x),

exact elements of Z[xi_p].  A period is represented by the tally of traces
over a class, folded into the power basis {1, xi, ..., xi^{p-2}} using
1 + xi + ... + xi^{p-1} = 0.

gamma^i lies in C_{i mod N}, so the classes are the columns of the antilog
table viewed as a (q-1)/N x N array: column a lists C_a in log order.  Every
union D of classes passes the public check ClassMap.classes, and its
elements are read off that view.  The trace tally counts traces one column
at a time.  x -> x^p maps C_a onto C_{pa mod N} and keeps the trace, so
tally rows are constant on the orbits of a -> pa mod N.  On a large field
whose antilog table is not built yet, and whose orbits are few, the tally
counts only one column per orbit, gamma^(a + Nj) built by
FieldTable.class_columns, and copies its row to the rest of the orbit; else
it counts all N columns of the antilog table.

Elements of Z[xi_p] are only added, two of one p at a time: no negation,
conjugate or product is formed.  The one quadratic subfield
Q(sqrt(p*)), p* = (-1)^((p-1)/2) p, is read off the exponent counts
instead: an element lies in it exactly when its counts are
constant on the nonzero squares and constant on the non-squares, and is
then u + v*eta0 with eta0 the sum of xi^t over the nonzero squares t.

Periods and connection sums are (n, p) exponent-count matrices; they are
folded to the power basis in numpy, one subtraction for all rows.  Each
CyclotomicInteger views its row of the folded int64 matrix, which is
read-only.  Every value holds an int64 row and refuses a coefficient
outside int64; periods and connection sums count below q, far inside it.
Which rows are rational integers, and their first coefficients, are read
off the matrix in one step, so is_rational_integer and to_int make no
numpy call per value.
"""

from __future__ import annotations

import operator

import numpy as np

from .finite_field import SIZE_CAP, FieldTable
from .ntheory import is_prime

# the worst case this admits, periods --p 8191 --f 1 --n 4095 --tally --format tsv (33542145
# cells), took 22-28 s and 1053 MB cold on a 2-vCPU VM, all but 0.4 s printing 134 MB of tsv
_TALLY_CELL_CAP = 1 << 25
# connection_sums adds |D| slices of N x p cells; the worst case this admits,
# 128 classes at q = 2^22 with N = q - 1, took 1.6-1.8 s on a 2-vCPU VM
_CONNECTION_CELL_CAP = 1 << 30
# a doubling step of the power tables costs about as much as filling 0.3-1.7 x 10^4 more elements
# (BENCH_32.json "step_cost"); the route rule keeps this constant at the top of that range
_STEP_COST = 1 << 14


def _checked_p(p: int) -> int:
    """p as an int, refused with ValueError unless it is a prime <= SIZE_CAP, the largest field order."""
    p = operator.index(p)
    if not 2 <= p <= SIZE_CAP or not is_prime(p):
        raise ValueError(f"p must be a prime <= {SIZE_CAP}, got {p}")
    return p


_INT64_SPAN = 1 << 63
# a sum or a constructed value reads whether it is rational off its row the first time a query asks
_UNKNOWN = object()


def _int64_row(coeffs: list[int]) -> tuple[np.ndarray, int]:
    """Python ints as a read-only int64 row, and max |c|; ValueError if one lies outside int64."""
    lo, hi = min(coeffs), max(coeffs)
    if lo < -_INT64_SPAN or hi >= _INT64_SPAN:
        raise ValueError(f"coefficients must lie in [-2^63, 2^63), got {lo if lo < -_INT64_SPAN else hi}")
    row = np.array(coeffs, dtype=np.int64)
    row.setflags(write=False)
    return row, max(-lo, hi)


class CyclotomicInteger:
    """Exact element of Z[xi_p] in the power basis {xi^0, ..., xi^{p-2}}.

    For p = 2 this degenerates to a plain integer (basis {1}).
    Instances are immutable and hashable.  Coefficients are held in row, a
    read-only 1-D int64 numpy array; a coefficient outside [-2^63, 2^63) is
    refused with ValueError.  bound is an int >= every |coefficient|; a sum
    adds in int64 while the two bounds add to less than 2^63, and otherwise
    forms the exact sum in Python ints, which it stores in int64 or refuses,
    so no coefficient wraps.  coeffs gives the coefficients as a tuple of
    Python ints.  The constructor converts other integer types
    (numpy ints, bool) by operator.index, which refuses floats and strings
    rather than truncate.  Two elements of the same Z[xi_p] add; there is no
    other arithmetic.  A rational value equals its int and every rational
    value with that int, of any order; an irrational value equals only a
    value with the same row, so of the same order.
    """

    __slots__ = ("p", "row", "bound", "_int")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        p = _checked_p(p)
        coeffs = list(map(operator.index, coeffs))
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p = {p}")
        self.p = p
        self.row, self.bound = _int64_row(coeffs)
        self._int = _UNKNOWN

    @classmethod
    def _of(cls, p: int, row: np.ndarray, bound: int, value=_UNKNOWN) -> "CyclotomicInteger":
        """Wrap a read-only row built in this module, skipping __init__'s checks.

        value is the int the row equals, None if it is not a rational integer, or _UNKNOWN.
        """
        self = object.__new__(cls)
        self.p, self.row, self.bound, self._int = p, row, bound, value
        return self

    @classmethod
    def from_int(cls, p: int, n: int) -> "CyclotomicInteger":
        p = _checked_p(p)
        n = operator.index(n)
        row = np.zeros(p - 1, dtype=np.int64)
        row[:1], bound = _int64_row([n])
        row.setflags(write=False)
        return cls._of(p, row, bound, n)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.row.tolist())

    def __add__(self, other):
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("mixed cyclotomic orders")
        bound = self.bound + other.bound
        if bound < _INT64_SPAN:
            row = self.row + other.row
            row.setflags(write=False)
        else:
            row, bound = _int64_row([x + y for x, y in zip(self.row.tolist(), other.row.tolist())])
        return CyclotomicInteger._of(self.p, row, bound)

    def __eq__(self, other):
        if isinstance(other, CyclotomicInteger):
            if not other.is_rational_integer:
                # an irrational row equals only itself: rows of two orders differ in length
                return self.row.tobytes() == other.row.tobytes()
            other = other.to_int()
        if isinstance(other, int):
            value = self._value()
            return value is not None and value == other
        return NotImplemented

    def __hash__(self):
        # a rational value equals its int, so it hashes like it
        value = self._value()
        if value is not None:
            return hash(value)
        return hash(self.row.tobytes())

    def __repr__(self):
        value = self._value()
        if value is not None:
            return f"CyclotomicInteger(p={self.p}, {value})"
        return f"CyclotomicInteger(p={self.p}, coeffs={self.coeffs})"

    # structure queries

    def _value(self) -> int | None:
        """The int self equals, or None if it is not a rational integer; read off the row once."""
        if self._int is _UNKNOWN:
            self._int = None if self.row[1:].any() else int(self.row[0])
        return self._int

    @property
    def is_rational_integer(self) -> bool:
        return self._value() is not None

    def to_int(self) -> int:
        value = self._value()
        if value is None:
            raise ValueError(f"not a rational integer: {self!r}")
        return value

    def quadratic_coordinates(self) -> tuple[int, int] | None:
        """(u, v) with self = u + v*eta0 if self lies in Q(sqrt(p*)), else None; (c_0, 0) for p = 2.

        eta0 is the sum of xi^t over the nonzero squares t.  xi -> xi^s, s a square, fixes exactly
        that subfield and permutes the exponents 1..p-1, so self lies in it iff its exponent counts
        are some a on the squares and some b on the non-squares: self = c_0 - b + (a - b) eta0.
        """
        p = self.p
        if p == 2:
            return int(self.row[0]), 0
        counts = np.append(self.row, 0)
        square = np.zeros(p, dtype=bool)
        square[np.arange(1, (p + 1) // 2, dtype=np.int64) ** 2 % p] = True
        a, b = counts[square], counts[1:][~square[1:]]
        if (a != a[0]).any() or (b != b[0]).any():
            return None
        # the differences in Python ints: in int64 they could wrap
        c0, a0, b0 = int(counts[0]), int(a[0]), int(b[0])
        return c0 - b0, a0 - b0

    def complex_embedding(self) -> complex:
        """Numeric value under xi_p = exp(2*pi*i/p); for cross-checks only."""
        xs = np.exp(2j * np.pi * np.arange(self.p - 1) / self.p)
        return complex(np.dot(self.row.astype(np.float64), xs))


def _fold_rows(p: int, counts: np.ndarray, total: int) -> list[CyclotomicInteger]:
    """One element per row of an (n, p) exponent-count matrix, folded in one pass.

    Each row counts total elements, so each count lies in [0, total] and
    total bounds every folded coefficient.  Each element views its row of
    the read-only folded matrix, and gets its int value, or None, from one
    pass over the matrix.
    """
    folded = counts[:, :-1] - counts[:, -1:]
    folded.setflags(write=False)
    irrational, firsts = folded[:, 1:].any(axis=1).tolist(), folded[:, 0].tolist()
    return [
        CyclotomicInteger._of(p, row, total, None if irr else first)
        for row, irr, first in zip(folded, irrational, firsts)
    ]


class ClassMap:
    """Cyclotomic classes of order N inside a built field; see classify()."""

    __slots__ = ("field", "N", "class_size", "_tally")

    def __init__(self, field: FieldTable, N: int):
        q = field.q
        N = operator.index(N)
        if N <= 1:
            raise ValueError(f"N must be at least 2, got {N}")
        if (q - 1) % N:
            raise ValueError(f"N = {N} does not divide q - 1 = {q - 1}")
        self.field = field
        self.N = N
        self.class_size = (q - 1) // N
        self._tally: np.ndarray | None = None

    def __repr__(self):
        return f"ClassMap(q={self.field.q}, N={self.N}, class_size={self.class_size})"

    @property
    def tally(self) -> np.ndarray:
        """tally[a, t] = #{x in C_a : Tr(x) = t}, shape (N, p)."""
        if self._tally is None:
            p = self.field.p
            if self.N * p > _TALLY_CELL_CAP:
                raise ValueError(f"period tally table would need {self.N * p} cells, cap is {_TALLY_CELL_CAP}")
            orbits = self._orbits()
            if orbits is None:
                tr = self.field.trace[self.field.antilog].reshape(-1, self.N)
            else:
                reps, orbit_of = orbits
                tr = self.field.trace[self.field.class_columns(self.N, reps)]
            # one bincount over the columns: column k counts into cells [k p, k p + p)
            flat = tr + p * np.arange(tr.shape[1], dtype=np.int64)
            tally = np.bincount(flat.ravel(), minlength=tr.shape[1] * p).reshape(-1, p)
            if orbits is not None:
                tally = tally[orbit_of]
            tally.setflags(write=False)
            self._tally = tally
        return self._tally

    def _orbits(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(reps, orbit_of) when one column per p-orbit costs less than the antilog table, else None.

        reps are the least members of the orbits of a -> p a mod N, and
        orbit_of[a] is the index of a's orbit.  The cost counts the elements
        class_columns fills, N + 1 + r (q-1)/N for r orbits, plus _STEP_COST per
        doubling step.  Orbits have at most f members, so r >= N/f bounds the
        cost before the orbits are found.
        """
        fld, N, m = self.field, self.N, self.class_size

        def cheaper(r: int) -> bool:
            steps = N.bit_length() + (m - 1).bit_length()
            return N + 1 + r * m + steps * _STEP_COST < fld.q - 1

        if fld.tables_built or not cheaper(-(-N // fld.f)):
            return None
        least = a = np.arange(N, dtype=np.int64)
        for _ in range(fld.f - 1):
            a = a * fld.p % N
            least = np.minimum(least, a)
        reps, orbit_of = np.unique(least, return_inverse=True)
        return (reps, orbit_of) if cheaper(len(reps)) else None

    def periods(self) -> list[CyclotomicInteger]:
        return _fold_rows(self.field.p, self.tally, self.class_size)

    @property
    def negation_shift(self) -> int:
        """t with -C_a = C_{a+t}, the log of -1 modulo N; 0 exactly when every class is symmetric.

        -1 has order gcd(2, q-1), so its log is (q-1)/2 for odd q and 0 for even q.
        """
        return (self.field.q - 1) // 2 % self.N if self.field.q % 2 else 0

    def is_symmetric(self, D) -> bool:
        """Whether the union of classes D is closed under negation."""
        d = set(self.classes(D))
        t = self.negation_shift
        return all((i + t) % self.N in d for i in d)

    def connection_sums(self, D) -> list[CyclotomicInteger]:
        """psi(gamma^a D) = sum over i in D of eta_{(a+i) mod N}, for a = 0..N-1."""
        d = self.classes(D)
        cells = len(d) * self.N * self.field.p
        if cells > _CONNECTION_CELL_CAP:
            raise ValueError(f"connection sums would add {cells} cells, cap is {_CONNECTION_CELL_CAP}")
        # rows i .. i+N-1 of the doubled tally are the periods shifted by i
        doubled = np.concatenate((self.tally, self.tally))
        acc = np.zeros_like(self.tally)
        for i in d:
            acc += doubled[i : i + self.N]
        return _fold_rows(self.field.p, acc, len(d) * self.class_size)

    # kept without a caller in src/: the perfbench tracer wraps it by name and the oracle tests read it
    def connection_set_elements(self, D) -> np.ndarray:
        """Encodings of all field elements lying in the classes D, in log order."""
        return self.field.antilog.reshape(-1, self.N)[:, self.classes(D)].ravel()

    def classes(self, D) -> list[int]:
        """The distinct class indices in D, sorted; ValueError if D is empty or an index lies outside [0, N)."""
        d = sorted(set(map(operator.index, D)))
        if not d:
            raise ValueError("connection set must be a nonempty set of classes")
        if not all(0 <= i < self.N for i in d):
            raise ValueError(f"class indices must lie in [0, {self.N})")
        return d


def classify(field: FieldTable, N: int) -> ClassMap:
    """Partition F_q* into the N cyclotomic classes C_i = gamma^i <gamma^N>."""
    return ClassMap(field, N)
