from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

import skewhad as sh

from _naive import field_index_add, field_index_neg

PAPER_I0 = tuple(range(4, 12))
PAPER_I1 = tuple(range(0, 8))


@pytest.fixture(scope="session")
def instance625():
    """The certified v=625 block pair: (tables, partition, pair, certificate)."""
    return sh.find_valid_generator(sh.FieldConfig(5, 4), 16, PAPER_I0, PAPER_I1)


@pytest.fixture(scope="session")
def matrix1252(instance625):
    _, _, pair, _ = instance625
    return sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)


@pytest.fixture(scope="session")
def instance4080():
    """The certified q = 2039, N = 2 instance of order 4080: (partition, H's
    read-only signs).  Each test wraps the signs in its own PmMatrix, so no
    orbit rows or sketch product cached by one test lower another's peak."""
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(2039, 1), 2, (0,), (0,))
    return partition, sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1).signs()


def desk_group(p):
    """The additive group of the prime field GF(p)."""
    return sh.additive_group(sh.build_field(sh.FieldConfig(p, 1)))


def subset_of_encodings(g, encodings):
    """Membership mask of the elements with the given encodings."""
    return sh.subset_from_indices(g, g.indices_of_encodings(encodings))


@pytest.fixture(scope="session")
def matrix8():
    """Order-8 desk instance over GF(3) with D0 = D1 = {1}."""
    g = desk_group(3)
    d = subset_of_encodings(g, [1])
    return sh.build_bordered_from_blocks(g, d, d)


@pytest.fixture(scope="session")
def matrix12():
    """Order-12 desk instance over GF(5) with D0 = {1,2}, D1 = {1,4}."""
    g = desk_group(5)
    return sh.build_bordered_from_blocks(g, subset_of_encodings(g, [1, 2]),
                                         subset_of_encodings(g, [1, 4]))


# Every prime-power order up to 16, so e > 1 in even and odd characteristic.
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


def field_group(p, e):
    """(group, add, neg): the additive group of GF(p^e) and digit-by-digit
    oracles for its index addition and negation."""
    tables = sh.build_field(sh.FieldConfig(p, e))
    enc = [0, *tables.antilog]
    return sh.additive_group(tables), field_index_add(p, e, enc), field_index_neg(p, e, enc)


# (p, e, N, i0, i1) of the order-8, 12, 24 and 56 instances
SMALL_CONFIGS = [(3, 1, 2, [0], [0]), (5, 1, 4, [0, 1], [0, 2]),
                 (11, 1, 2, [0], [0]), (3, 3, 2, [0], [0])]


@pytest.fixture(scope="session")
def small_matrices():
    """(n, H signs, 0/1 tournament core) of each small instance."""
    out = []
    for p, e, N, i0, i1 in SMALL_CONFIGS:
        _, _, pair, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
        h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
        m01 = sh.normalize_core_tournament(h)
        out.append((h.n, h.signs(), m01))
    return out


class AuditChecks:
    """The checks an automorphism audit makes: one entry in ``dense`` per
    dense check (``verify_automorphism``) and, in ``shifts``, the offset d
    of each block shift it compares (``_keeps_block_shift``)."""

    def __init__(self):
        self.dense, self.shifts = [], []

    def clear(self):
        self.dense.clear()
        self.shifts.clear()


@pytest.fixture()
def audit_checks(monkeypatch):
    """An :class:`AuditChecks` that records every check of ``autgroup``."""
    checks, autgroup = AuditChecks(), sh.autgroup
    verify, keeps = autgroup.verify_automorphism, autgroup._keeps_block_shift
    monkeypatch.setattr(autgroup, "verify_automorphism",
                        lambda h, sigma: checks.dense.append(1) or verify(h, sigma))
    monkeypatch.setattr(autgroup, "_keeps_block_shift",
                        lambda x, d: checks.shifts.append(d) or keeps(x, d))
    return checks


def random_signs(n, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, n))


def orbit_flip(signs, d, a):
    """signs with every entry of the orbit {(3 + k, 3 + (k + a) mod (v - 1)) :
    d | k} of the block shift by d negated, for a bordered matrix of order
    2(v + 1): the shift keeps the result whenever it keeps signs."""
    x = signs.copy()
    length = len(x) // 2 - 2
    k = np.arange(0, length, d)
    x[3 + k, 3 + (k + a) % length] *= -1
    return x


def swap_member(group, mask, member):
    """``mask`` with ``member`` swapped for its negative or, when that is a
    member too, for the first nonzero non-member.  Every translation keeps
    the development of any subset."""
    out = mask.copy()
    neg = int(group.neg_perm()[member])
    out[member], out[neg if not mask[neg] else np.flatnonzero(~mask[1:])[0] + 1] = False, True
    return out


def traced_peak(call):
    """``(call(), the most bytes tracemalloc saw allocated during the call
    beyond those live when it began)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def mutate_one_byte(data, draw):
    """``data`` with one byte replaced, deleted or inserted, drawn through a
    hypothesis ``st.data().draw``."""
    kind = draw(st.sampled_from(["replace", "delete", "insert"]))
    pos = draw(st.integers(0, len(data) - (kind != "insert")))
    new = bytes([draw(st.integers(0, 255))]) if kind != "delete" else b""
    return data[:pos] + new + data[pos + (kind != "insert"):]
