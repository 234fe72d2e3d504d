"""GF(p^e) arithmetic via polynomial representation and discrete-log tables.

Field elements are encoded as integers: a coefficient vector
(c_0, ..., c_{e-1}) over GF(p) encodes to ``sum(c_i * p**i)``.  This encoding
defines the canonical element order used everywhere ("smallest" always means
smallest encoding).

The log/antilog tables realize the multiplicative group: ``antilog[k]`` is
the encoding of g^k for the chosen primitive element g, and ``log`` inverts
that on nonzero encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import GroupSpec

MAX_FIELD_ORDER = 1 << 20


class FieldError(ValueError):
    """Invalid field configuration (bad modulus, generator, or sizes)."""


@dataclass(frozen=True)
class FieldConfig:
    """Parameters selecting GF(p^e), its modulus polynomial, and a generator.

    ``modulus`` is a tuple of e+1 coefficients (constant term first, monic)
    or None to auto-select the irreducible polynomial with the smallest
    encoded low-coefficient vector.  ``generator`` is a canonical encoding or
    None to auto-select the smallest primitive element.
    """

    p: int
    e: int
    modulus: tuple[int, ...] | None = None
    generator: int | None = None


@dataclass(eq=False)
class FieldTables:
    """Discrete-log realization of GF(p^e)^x.

    ``antilog[k]`` is the encoding of g^k for k in [0, q-1); ``log``, derived
    from it here, is its inverse on nonzero encodings, with ``log[0] == -1``
    as a sentinel.  The antilog must be a bijection onto the nonzero
    encodings, which holds exactly when g is primitive; FieldError otherwise.
    """

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]
    generator: int
    antilog: np.ndarray
    log: np.ndarray = field(init=False)
    _additive: GroupSpec | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        a = self.antilog
        if a.shape != (self.q - 1,) or not ((a > 0) & (a < self.q)).all():
            raise FieldError(f"antilog is not a permutation of 1 .. {self.q - 1}")
        self.log = -np.ones(self.q, dtype=np.int64)
        self.log[self.antilog] = np.arange(self.q - 1)
        if int(np.count_nonzero(self.log >= 0)) != self.q - 1:  # g^k repeats early
            raise FieldError(f"generator encoding {self.generator} is not primitive in GF({self.q})")
        self.antilog.setflags(write=False)
        self.log.setflags(write=False)


@dataclass(eq=False)
class CyclotomicPartition:
    """Partition of GF(q)^x into N classes C_i = g^i * <g^N>.

    The class of a nonzero encoding x is ``tables.log[x] % N``; every class
    has size ``f = (q - 1) // N``.
    """

    tables: FieldTables
    N: int
    f: int


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def decode_encoding(v: int, p: int, e: int) -> tuple[int, ...]:
    out = []
    for _ in range(e):
        out.append(v % p)
        v //= p
    return tuple(out)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Product of two degree-<e coefficient tuples, reduced mod the monic modulus."""
    e = len(a)
    res = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # x^e = -(m_0 + m_1 x + ... + m_{e-1} x^{e-1})
    for d in range(2 * e - 2, e - 1, -1):
        c = res[d]
        if c:
            res[d] = 0
            for i in range(e):
                res[d - e + i] = (res[d - e + i] - c * modulus[i]) % p
    return tuple(res[:e])


def _poly_divisible(f: list[int], d: list[int], p: int) -> bool:
    """Whether the monic polynomial f (coeff list, low first) is divisible by monic d."""
    r = list(f)
    dd = len(d) - 1
    while len(r) - 1 >= dd:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dd
            for i, di in enumerate(d):
                r[shift + i] = (r[shift + i] - lead * di) % p
        r.pop()
    return all(c == 0 for c in r)


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) by trial division.

    Divides by every monic polynomial of degree 1..deg/2; fine for the small
    degrees used here (the field order is capped at 2^20).
    """
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    f = [c % p for c in coeffs]
    for d_deg in range(1, e // 2 + 1):
        for low in range(p**d_deg):
            d = list(decode_encoding(low, p, d_deg)) + [1]
            if _poly_divisible(f, d, p):
                return False
    return True


def find_modulus(p: int, e: int) -> tuple[int, ...]:
    """The monic irreducible of degree e whose low coefficients have the
    smallest canonical encoding."""
    for low in range(p**e):
        coeffs = decode_encoding(low, p, e) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs
    raise FieldError(f"no irreducible polynomial of degree {e} over GF({p})")  # pragma: no cover


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_pow(a: tuple[int, ...], k: int, modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a^k reduced mod the monic modulus, by square-and-multiply."""
    acc = (1,) + (0,) * (len(a) - 1)
    while k:
        if k & 1:
            acc = _poly_mul(acc, a, modulus, p)
        a = _poly_mul(a, a, modulus, p)
        k >>= 1
    return acc


def _antilog_table(g: int, modulus: tuple[int, ...], p: int, e: int) -> np.ndarray:
    """The encodings of g^0, ..., g^(q-2), by doubling.

    Multiplication by a fixed element is GF(p)-linear on coefficient rows:
    row i of ``step`` holds x^i g^k, so the block [g^0 ... g^(k-1)] times
    ``step`` is [g^k ... g^(2k-1)], one (k, e) @ (e, e) product mod p, and
    ``step @ step`` moves on to g^(2k).  Every sum is below e p^2 <= 2^40.
    """
    q = p**e
    x = decode_encoding(g, p, e)
    step = np.array([_poly_mul(tuple(int(i == j) for j in range(e)), x, modulus, p)
                     for i in range(e)], dtype=np.int64)
    powers = np.zeros((1, e), dtype=np.int64)
    powers[0, 0] = 1
    while len(powers) < q - 1:
        powers = np.concatenate([powers, powers[:q - 1 - len(powers)] @ step % p])
        step = step @ step % p
    return powers @ p ** np.arange(e, dtype=np.int64)


def build_field(config: FieldConfig) -> FieldTables:
    """Construct log/antilog tables for GF(p^e).

    Auto selections are deterministic: the modulus is the lexicographically
    smallest monic irreducible (by coefficient encoding) and the generator is
    the smallest-encoded element of full multiplicative order q - 1.  The
    candidates are tried in encoding order: g is primitive exactly when
    g^((q-1)/r) != 1 for every prime r dividing q - 1, each power a
    square-and-multiply, so a candidate costs O(e^2 log q) whatever its
    order.  A supplied generator is not searched for: its own antilog table
    is built, and it is primitive exactly when that table is a bijection
    onto the nonzero elements.  Either way the table is built once by
    doubling (see :func:`_antilog_table`), about log2 q numpy products.

    Raises FieldError for an order above MAX_FIELD_ORDER (checked first), a
    composite p, a pinned value that is not an integer, a reducible modulus,
    or a supplied generator that is out of range or not primitive.
    """
    p, e = config.p, config.e
    if e < 1:
        raise FieldError(f"extension degree must be >= 1, got {e}")
    # The order is bounded before the primality test, whose trial division
    # does not end on a huge p; p >= 2 bounds e by log2(MAX_FIELD_ORDER)
    # before p**e is formed.
    if p > 1 and (e >= MAX_FIELD_ORDER.bit_length() or p**e > MAX_FIELD_ORDER):
        raise FieldError(f"field order {p}^{e} exceeds the supported maximum {MAX_FIELD_ORDER}")
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    q = p**e
    for value in [config.generator, *(() if config.modulus is None else config.modulus)]:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer, type(None))):
            raise FieldError(f"pinned field parameter {value!r} is not an integer")

    if config.modulus is None:
        modulus = find_modulus(p, e)
    else:
        modulus = tuple(int(c) % p for c in config.modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise FieldError(f"modulus must be monic with {e + 1} coefficients")
        if not is_irreducible(modulus, p):
            raise FieldError(f"modulus {modulus} is reducible over GF({p})")

    if config.generator is None:
        one = (1,) + (0,) * (e - 1)
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        for generator in range(1, q):  # the modulus is irreducible: one of them is primitive
            x = decode_encoding(generator, p, e)
            if all(_poly_pow(x, c, modulus, p) != one for c in cofactors):
                break
    elif not 0 < (generator := int(config.generator)) < q:
        raise FieldError(f"generator encoding {generator} out of range")
    return FieldTables(p=p, e=e, q=q, modulus=modulus, generator=generator,
                       antilog=_antilog_table(generator, modulus, p, e))


def tables_for_generator(base: FieldTables, generator: int) -> FieldTables:
    """Tables for a different primitive element of the same field.

    Equivalent to rebuilding by successive multiplication: if g0 is the base
    generator and generator = g0^t, then the new antilog at k is
    ``base.antilog[(t*k) mod (q-1)]``.  Raises FieldError for an encoding
    outside ``0 < generator < q`` or, from :class:`FieldTables`, one that is
    not primitive (gcd(t, q - 1) != 1 repeats an entry).
    """
    if not 0 < generator < base.q:
        raise FieldError(f"generator encoding {generator} out of range")
    idx = (np.arange(base.q - 1, dtype=np.int64) * int(base.log[generator])) % (base.q - 1)
    return FieldTables(p=base.p, e=base.e, q=base.q, modulus=base.modulus,
                       generator=generator, antilog=base.antilog[idx])


def cyclotomic_partition(tables: FieldTables, N: int) -> CyclotomicPartition:
    """Split GF(q)^x into the N cyclotomic classes of the generator.

    Class i is ``{g^(N*k + i)}``; requires N | q - 1.
    """
    q = tables.q
    if N < 1 or (q - 1) % N != 0:
        raise FieldError(f"N = {N} does not divide q - 1 = {q - 1}")
    return CyclotomicPartition(tables=tables, N=N, f=(q - 1) // N)


def negation_class_shift(tables: FieldTables, N: int) -> int:
    """Class index of -1, which is ((q-1)/2) mod N for odd q."""
    if tables.q % 2 == 0:
        raise FieldError("negation class shift requires odd field order")
    if (tables.q - 1) % N != 0:
        raise FieldError(f"N = {N} does not divide q - 1 = {tables.q - 1}")
    return ((tables.q - 1) // 2) % N


def additive_group(tables: FieldTables) -> GroupSpec:
    """The additive group of the field, ordered [0, g^0, g^1, ...].

    Built once per ``FieldTables`` and kept on them, so its Zech tables are
    shared by every caller.
    """
    if tables._additive is None:
        enc = np.concatenate([np.zeros(1, dtype=np.int64), tables.antilog])
        tables._additive = GroupSpec.field_additive(tables.p, tables.e, enc)
    return tables._additive
