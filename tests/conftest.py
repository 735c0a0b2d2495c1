"""Shared test helpers: a build cache so suites can reuse field tables, and
scalar references that read a field only through its tables or its digits."""

from functools import lru_cache

from cyclosrg.finite_field import build_field
from cyclosrg.ntheory import factorize


@lru_cache(maxsize=None)
def get_field(p: int, f: int):
    return build_field(p, f)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _digitwise(fld, x: int, y: int, sign: int) -> int:
    # one base-p digit at a time in Python ints, never through sub_vec
    out, pw = 0, 1
    for _ in range(fld.f):
        out += (x // pw % fld.p + sign * (y // pw % fld.p)) % fld.p * pw
        pw *= fld.p
    return out


def add(fld, x: int, y: int) -> int:
    return _digitwise(fld, x, y, 1)


def sub(fld, x: int, y: int) -> int:
    return _digitwise(fld, x, y, -1)


def mul(fld, x: int, y: int) -> int:
    """The product read through the tables: antilog[(log x + log y) % (q-1)]."""
    if x == 0 or y == 0:
        return 0
    return int(fld.antilog[(fld.log[x] + fld.log[y]) % (fld.q - 1)])


def power(fld, x: int, e: int) -> int:
    """x**e for nonzero x, read through the tables: antilog[log x * e % (q-1)]."""
    return int(fld.antilog[fld.log[x] * e % (fld.q - 1)])
