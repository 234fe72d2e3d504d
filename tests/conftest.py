from __future__ import annotations

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


def random_signs(n, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, n))


def mutate_one_byte(data, draw):
    """``data`` with one byte replaced, deleted or inserted, drawn through a
    hypothesis ``st.data().draw``."""
    kind = draw(st.sampled_from(["replace", "delete", "insert"]))
    pos = draw(st.integers(0, len(data) - (kind != "insert")))
    new = bytes([draw(st.integers(0, 255))]) if kind != "delete" else b""
    return data[:pos] + new + data[pos + (kind != "insert"):]
