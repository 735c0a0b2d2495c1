"""Finite fields F_{p^f} as dense lookup tables.

An element is encoded as the integer sum(c_i * p**i) where (c_0, ..., c_{f-1})
is the coefficient vector of its residue polynomial modulo a fixed monic
irreducible polynomial of degree f over Z/pZ.  Encodings run over
{0, ..., q-1} with 0 the zero element and 1 the one element.

Construction is deterministic: the modulus is the lexicographically smallest
monic irreducible (coefficients compared low degree first) and the generator
gamma is the smallest encoding that is primitive.  Both searches take powers
of the f x f matrix of multiplication by an element over F_p (pow mod p at f = 1);
the coprimality check of Rabin's test is a unit test by such a power, and
the basis trace Tr(x**i) is the trace of the matrix of x**i.  Tables of
powers seed * c**j are filled by doubling: rows [s, 2s) are c**s times rows
[0, s), x * c % p at f = 1.  For f >= 2, multiplication by c is F_p-linear in
the digits; each chunk of an encoding's digits looks up the packed image of
that chunk, and the chunk images are XORed (p = 2) or added and reduced slot
by slot (odd p).  The trace is F_p-linear too: an XOR doubling at p = 2 and
an outer sum over the digits at odd p.  build_field finds the modulus, gamma
and the trace table; antilog and log are built the first time either is
read, and class_columns gives columns of antilog without it.  A product is
antilog[(log x + log y) % (q-1)], sub_vec subtracts digit by digit, and -1 is
the encoding p - 1:

    antilog[i] = encoding of gamma**i          (length q-1)
    log[x]     = i with antilog[i] == x        (length q, log[0] == -1)
    trace[x]   = absolute trace as int in [0, p)

The tables are numpy arrays marked read only: antilog and log are int64,
trace is np.min_scalar_type(p - 1) (uint8 for p < 256, else uint16, or uint32
for the prime fields above 2^16).
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .ntheory import is_prime, prime_factors

SIZE_CAP = 1 << 22

# ---------------------------------------------------------------------------
# modulus search over Z/pZ, used only during construction
# coefficient tuples are low degree first; residues have length f


def _is_irreducible(mod_low: tuple[int, ...], p: int) -> bool:
    """Rabin test for the monic degree-f polynomial g = x^f + mod_low.

    Once x**q == x, g divides x**q - x: it is squarefree with factor degrees
    dividing f, so F_p[x]/(g) is a product of fields F_{p^d}, d | f, where u is
    a unit exactly when u**(q-1) == 1.  That power decides gcd(u, g) == 1.
    """
    f = len(mod_low)
    if f == 1:
        return True
    q = p**f
    x = _digits(p, p, f)  # the encoding of x is p
    x_rows = _mul_rows(list(x), mod_low, p)
    if _power_of(x_rows, q, p) != x:
        return False
    one = _digits(1, p, f)
    for ell in prime_factors(f):
        # x**(p**(f/ell)) - x must be a unit
        h = _power_of(x_rows, p ** (f // ell), p)
        diff = [(hi - xi) % p for hi, xi in zip(h, x)]
        if _power_of(_mul_rows(diff, mod_low, p), q - 1, p) != one:
            return False
    return True


def _smallest_irreducible(p: int, f: int) -> tuple[int, ...]:
    """Lex-smallest monic irreducible of degree f, low degree compared first."""
    if f == 1:
        return (0, 1)
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=f - 1):
            mod_low = (c0,) + rest
            if _is_irreducible(mod_low, p):
                return mod_low + (1,)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# encoding helpers


def _digits(x: int, p: int, f: int) -> tuple[int, ...]:
    out = []
    for _ in range(f):
        out.append(x % p)
        x //= p
    return tuple(out)


# ---------------------------------------------------------------------------
# vectorized table construction


def _mul_rows(c: list[int], mod_low: tuple[int, ...], p: int) -> np.ndarray:
    """Digit rows c * x**i (i < f): multiplication by c as an f x f matrix over F_p."""
    rows = [c]
    for _ in range(len(mod_low) - 1):
        prev = rows[-1]
        top = prev[-1]
        # x * prev, with x**f replaced by -mod_low
        rows.append([(lo - top * m) % p for lo, m in zip([0] + prev[:-1], mod_low)])
    return np.array(rows, dtype=np.int64)


def _power_of(rows: np.ndarray, e: int, p: int) -> tuple[int, ...]:
    """Digits of c**e by square-and-multiply, where rows = _mul_rows(c, mod_low, p).

    _mul_rows(a) @ _mul_rows(b) is _mul_rows(a * b), and row 0 of _mul_rows(a)
    holds the digits of a, so the power is kept as that row alone.  Entries
    of a product stay below f * p**2: under 2**27 for f >= 2 and q <= SIZE_CAP,
    and p**2 < 2**44 for f = 1, so int64 is exact.  A 1 x 1 row is a power mod p.
    """
    if len(rows) == 1:
        return (pow(int(rows[0, 0]), e, p),)
    digits = np.zeros(len(rows), dtype=np.int64)
    digits[0] = 1
    while e:
        if e & 1:
            digits = digits @ rows % p
        e >>= 1
        if e:
            rows = rows @ rows % p
    return tuple(digits.tolist())


# a chunk of digits indexes a table of at most this many images
_CHUNK_VALUES = 2048


def _slot_layout(p: int, f: int) -> tuple[int, int, int]:
    """(k, m, w) for f >= 2: m chunks of at most k digits, p**k <= _CHUNK_VALUES, and w-bit slots.

    Chunks have equal width except perhaps the last.  A slot holds one image
    digit; odd p adds m chunk images, so a slot must hold m * (p - 1), while
    p = 2 combines by XOR and needs one bit.  The f slots share one int64.
    """
    k_max = 1
    while p ** (k_max + 1) <= _CHUNK_VALUES:
        k_max += 1
    m = -(-f // k_max)
    k = -(-f // m)
    w = 1 if p == 2 else (m * (p - 1)).bit_length()
    if f * w > 63:
        raise OverflowError(f"{f} slots of {w} bits do not fit in an int64")
    return k, m, w


class _LinearMap:
    """Apply F_p-linear maps of F_{p^f} (f >= 2) to arrays of encodings.

    Each chunk of k digits indexes a table of its images, packed one digit
    per w-bit slot.  p = 2 XORs the chunk images, which are then encodings.
    Odd p adds them and reduces the slots mod p through decoders of at most
    4096 entries.  The chunk images depend on the map; the layout, the chunk
    digits and the decoders on (p, f) alone, so they are built once.
    """

    def __init__(self, p: int, f: int):
        self.p = p
        self.k, m, self.w = _slot_layout(p, f)
        self.widths = [min(self.k, f - j * self.k) for j in range(m)]
        self.slot_place = np.left_shift(1, self.w * np.arange(f, dtype=np.int64))
        if p == 2:
            return
        values = np.arange(p**self.k, dtype=np.int64)
        self.chunk_digits = values[:, None] // p ** np.arange(self.k, dtype=np.int64) % p
        # g slots per lookup: decoders[i][bits] is the encoding of slots
        # g*i ... g*i + g - 1, each reduced mod p
        g = max(1, 12 // self.w)
        self.group_bits = g * self.w
        bits = np.arange(1 << self.group_bits, dtype=np.int64)
        low = np.zeros_like(bits)
        for s in range(g):
            low += ((bits >> (s * self.w)) & ((1 << self.w) - 1)) % p * p**s
        self.decoders = [low * p ** (g * i) for i in range(-(-f // g))]

    def _chunk_images(self, rows: np.ndarray) -> np.ndarray:
        """Packed images of every value of a chunk whose digits map to ``rows``."""
        if self.p > 2:
            return self.chunk_digits[: self.p ** len(rows), : len(rows)] @ rows % self.p @ self.slot_place
        images = np.zeros(1 << len(rows), dtype=np.int64)
        for i, r in enumerate((rows @ self.slot_place).tolist()):
            np.bitwise_xor(images[: 1 << i], r, out=images[1 << i : 2 << i])
        return images

    def apply(self, rows: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
        """out = images of the encodings x under the map with digit rows ``rows``."""
        p, k, last = self.p, self.k, len(self.widths) - 1
        images = [self._chunk_images(rows[j * k : j * k + width]) for j, width in enumerate(self.widths)]
        if p == 2:
            # mode="clip" writes straight into out, where the default mode buffers
            np.take(images[0], x & ((1 << k) - 1), out=out, mode="clip")
            for j in range(1, last + 1):
                chunk = x >> (j * k)
                if j < last:
                    chunk &= (1 << k) - 1
                out ^= images[j].take(chunk)
            return
        rest = x
        for j in range(last + 1):
            rest, chunk = np.divmod(rest, p**k) if j < last else (None, rest)
            if j == 0:
                acc = images[0].take(chunk)
            else:
                acc += images[j].take(chunk)
        mask = (1 << self.group_bits) - 1
        np.take(self.decoders[0], acc & mask, out=out, mode="clip")
        for i, decoder in enumerate(self.decoders[1:], 1):
            out += decoder.take((acc >> (i * self.group_bits)) & mask)


def _power_table(p: int, f: int, mod_low: tuple[int, ...], seeds: np.ndarray, c: int, n: int) -> np.ndarray:
    """seeds[k] * c**j as table[j, k] for j < n, by doubling: rows [s, s+step) are c**s times rows [0, step).

    Each doubling block is contiguous.  rows, the matrix of multiplication by
    c**s, is squared after each step.  Every step works on encodings: x * c**s % p
    at f = 1, else _LinearMap with those digit rows.
    """
    table = np.empty((n, len(seeds)), dtype=np.int64)
    table[0] = seeds
    linear = _LinearMap(p, f) if f >= 2 else None
    rows = _mul_rows(list(_digits(c, p, f)), mod_low, p)
    size = 1
    while size < n:
        step = min(size, n - size)
        # row slices of a C-ordered array are contiguous, so reshape gives views
        src, block = table[:step].reshape(-1), table[size : size + step].reshape(-1)
        if linear is None:
            np.multiply(src, rows[0, 0], out=block)
            block %= p
        else:
            linear.apply(rows, src, block)
        # sizes double until the last step, so the next multiplier is the square
        rows = rows @ rows % p
        size += step
    return table


def _trace_table(p: int, mod_low: tuple[int, ...]) -> np.ndarray:
    """Trace of every encoding, the last digit most significant.

    The basis traces s_i = Tr(x**i) are the traces of the matrices of
    multiplication by x**i, whose encoding is p**i.  The table has dtype
    np.min_scalar_type(p - 1).  p = 2 doubles with XOR in
    uint8: block [2**i, 2**(i+1)) is block [0, 2**i) plus s_i.  Odd p takes an
    outer sum over the digits in a dtype that holds 2p - 2, the largest sum.
    """
    f = len(mod_low)
    s = [int(np.trace(_mul_rows(list(_digits(p**i, p, f)), mod_low, p))) % p for i in range(f)]
    if p == 2:
        tr = np.zeros(1 << f, dtype=np.uint8)
        for i, si in enumerate(s):
            np.bitwise_xor(tr[: 1 << i], si, out=tr[1 << i : 2 << i])
        return tr
    wide = np.min_scalar_type(2 * p - 2)
    digit = np.arange(p, dtype=np.int64)
    tr = np.zeros(1, dtype=wide)
    for si in s:
        nxt = (digit * si % p).astype(wide)[:, None] + tr
        nxt %= p
        tr = nxt.ravel()
    return tr.astype(np.min_scalar_type(p - 1), copy=False)


# ---------------------------------------------------------------------------


class FieldTable:
    """Immutable table model of F_{p^f}; build with build_field.

    gamma and trace are computed by build_field.  antilog and log are int64
    and are built together the first time either is read; tallies over large
    fields can take columns of antilog from class_columns instead.  trace has
    dtype np.min_scalar_type(p - 1), so arithmetic on its entries wraps unless
    they are widened first.  The one arithmetic method is sub_vec, which the
    difference-count oracle reads; it takes no logarithm.
    """

    __slots__ = ("p", "f", "q", "modulus", "gamma", "trace", "_antilog", "_log")

    def __init__(self, p: int, f: int, modulus: tuple[int, ...], gamma: int, trace: np.ndarray):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus
        self.gamma = gamma
        self.trace = trace
        trace.setflags(write=False)
        self._antilog = self._log = None

    def __repr__(self) -> str:
        return f"FieldTable(p={self.p}, f={self.f}, q={self.q}, modulus={self.modulus})"

    @property
    def antilog(self) -> np.ndarray:
        return self._tables()[0]

    @property
    def log(self) -> np.ndarray:
        return self._tables()[1]

    @property
    def tables_built(self) -> bool:
        return self._antilog is not None

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._antilog is None:
            q = self.q
            antilog = self._powers(np.ones(1, dtype=np.int64), self.gamma, q - 1).reshape(-1)
            log = np.full(q, -1, dtype=np.int64)
            log[antilog] = np.arange(q - 1, dtype=np.int64)
            # construction sanity: powers of gamma enumerate the q-1 nonzero elements.
            # No entry is zero or negative (a negative one wraps in the scatter), and
            # every nonzero element has a log, so the q-1 entries hold no repeat.
            if antilog.min() < 1 or log[1:].min() < 0:
                raise AssertionError("antilog table is not a bijection onto F_q*")
            for arr in (antilog, log):
                arr.setflags(write=False)
            self._antilog, self._log = antilog, log
        return self._antilog, self._log

    def _powers(self, seeds: np.ndarray, c: int, n: int) -> np.ndarray:
        return _power_table(self.p, self.f, self.modulus[:-1], seeds, c, n)

    def class_columns(self, N: int, a: np.ndarray) -> np.ndarray:
        """Columns a of antilog.reshape(-1, N), gamma**(a[k] + N*j) at [j, k], built without antilog.

        The powers gamma**i, i <= N, give the seeds gamma**a[k] and the step gamma**N.
        """
        heads = self._powers(np.ones(1, dtype=np.int64), self.gamma, N + 1).reshape(-1)
        return self._powers(heads[a], int(heads[N]), (self.q - 1) // N)

    def sub_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a - b on encoded arrays (broadcasting allowed), digit by digit mod p."""
        if self.p == 2:
            return a ^ b
        res = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        pw = 1
        for _ in range(self.f):
            res += (np.subtract(a // pw, b // pw) % self.p) * pw
            pw *= self.p
        return res


def _find_generator(p: int, f: int, q: int, mod_low: tuple[int, ...]) -> int:
    ell_list = [(q - 1) // ell for ell in prime_factors(q - 1)]
    one = _digits(1, p, f)
    # for f >= 2 encodings below p are F_p, whose orders divide p - 1 < q - 1;
    # at f = 1, 1 has order q - 1 only in F_2, where ell_list is empty
    for e in range(1 if f == 1 else p, q):
        rows = _mul_rows(list(_digits(e, p, f)), mod_low, p)
        if all(_power_of(rows, t, p) != one for t in ell_list):
            return e
    raise AssertionError("no generator found")  # unreachable for a true field


def build_field(p: int, f: int, modulus: tuple[int, ...] | None = None) -> FieldTable:
    """Construct F_{p^f} with the deterministic modulus and generator.

    An explicit monic irreducible modulus (length f+1 coefficient tuple,
    low degree first) may be supplied; it is validated.  The default is
    the lexicographically smallest one, so repeated builds are identical.
    """
    p, f = operator.index(p), operator.index(f)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if f < 1:
        raise ValueError(f"f must be >= 1, got {f}")
    # p >= 2, so f alone bounds q; checked first so that no huge p**f is formed
    if f > SIZE_CAP.bit_length() - 1:
        raise ValueError(f"extension degree f = {f} exceeds the cap {SIZE_CAP.bit_length() - 1}")
    q = p**f
    if q > SIZE_CAP:
        raise ValueError(f"field size {q} exceeds the cap {SIZE_CAP}")
    if modulus is None:
        modulus = _smallest_irreducible(p, f)
    else:
        modulus = tuple(operator.index(c) % p for c in modulus)
        if len(modulus) != f + 1 or modulus[f] != 1:
            raise ValueError("modulus must be monic of degree f")
        if not _is_irreducible(modulus[:f], p):
            raise ValueError("modulus is reducible")
    mod_low = modulus[:f]
    return FieldTable(p, f, modulus, _find_generator(p, f, q, mod_low), _trace_table(p, mod_low))
