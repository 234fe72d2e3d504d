"""Affine maps x -> u*x + a acting on the bordered matrix by index permutation.

With u ranging over the class of 1 in the cyclotomic partition and a over
the whole field, these maps permute the group-indexed block rows and columns
(identically in both blocks, fixing the two border indices) and leave the
assembled matrix invariant entry for entry.  No sign component is needed:
the borders are constant and every block entry depends only on element
differences, which the maps rescale within block-invariant classes.

The audit checks only the 1 + e generators densely.  When all pass, the
orbit-stabilizer step of Schreier-Sims (Seress, *Permutation Group
Algorithms*, CUP 2003) certifies the rest: the translations move block
index 0 to all q indices, the multiplier's powers are its stabilizer, and
every map is a product of the two, so all f*q maps are automorphisms.  A
closure sample that equals one of those maps entry for entry then passes
with no dense check; any other sample is checked densely.  When a generator
fails, the count stays exact: an automorphism keeps the -1 counts of each
row and column, so only the maps sending one index of the rarest class of
those counts into that class are checked densely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf import CyclotomicPartition, FieldTables
from . import gf as _gf
from .hadamard import PmMatrix


@dataclass(frozen=True)
class AffineMap:
    """x -> u*x + a with u, a as canonical encodings; u must be nonzero."""

    u: int
    a: int


def make_affine(partition: CyclotomicPartition, u: int, a: int) -> AffineMap:
    """Validated constructor: the multiplier must lie in class 0."""
    if u == 0 or int(partition.class_of[u]) != 0:
        raise ValueError(f"multiplier encoding {u} is not in class 0")
    return AffineMap(u=int(u), a=int(a))


def induced_permutation(tables: FieldTables, m: AffineMap) -> np.ndarray:
    """Permutation of the 2(q+1) bordered indices induced by the affine map.

    Indices 0 and 1 (the borders) are fixed; group index i in either block
    maps to the index of u*g_i + a under the canonical ordering, with the
    same action on both blocks.
    """
    q = tables.q
    group = _gf.additive_group(tables)
    out_enc = np.empty(q, dtype=np.int64)
    out_enc[0] = 0
    lu = int(tables.log[m.u])
    out_enc[1:] = tables.antilog[(np.arange(q - 1) + lu) % (q - 1)]
    # add the translation coefficient-wise
    a_idx = group.index_of_encoding(m.a)
    pi = group.add_shift(group.indices_of_encodings(out_enc), a_idx)
    sigma = np.empty(2 * q + 2, dtype=np.int64)
    sigma[0] = 0
    sigma[1] = 1
    sigma[2: q + 2] = 2 + pi
    sigma[q + 2:] = q + 2 + pi
    return sigma


def verify_automorphism(h: PmMatrix, sigma: np.ndarray) -> bool:
    """Whether H[sigma(i), sigma(j)] == H[i, j] for all i, j."""
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape != (h.n,):
        raise ValueError(f"permutation length {sigma.shape} does not match order {h.n}")
    s = h.signs()
    return bool(np.array_equal(np.take(np.take(s, sigma, axis=0), sigma, axis=1), s))


def _block_action(sigma: np.ndarray, q: int) -> np.ndarray:
    """The action on one block of a bordered-index permutation.

    Raises unless sigma fixes both borders and acts on the two blocks alike,
    the shape every induced map has; :func:`_orbit_stabilizer` runs on block
    actions only and relies on it.
    """
    pi = sigma[2: q + 2] - 2
    if (sigma.shape != (2 * q + 2,) or sigma[0] != 0 or sigma[1] != 1
            or not np.array_equal(np.sort(pi), np.arange(q))
            or not np.array_equal(sigma[q + 2:], pi + q + 2)):
        raise AssertionError("permutation does not act on the two blocks alike")
    return pi


def _bordered(pi: np.ndarray, q: int) -> np.ndarray:
    """Inverse of :func:`_block_action`."""
    return np.concatenate([[0, 1], 2 + pi, q + 2 + pi])


def _affine_tables(partition: CyclotomicPartition):
    """Index tables for the f*q maps x -> g^(N*k) x + g_i, numbered k*q + i.

    Returns ``minus`` with minus[a, y] the index of g_y - g_a, ``plus``
    flattened with plus[a*q + x] the index of g_x + g_a, and ``scaled`` with
    scaled[k] the block action of x -> g^(N*k) x, so that the block action
    of map k*q + i is ``plus[i*q + scaled[k]]``.
    """
    tables = partition.tables
    q, f, n_cls = tables.q, partition.f, partition.N
    group = _gf.additive_group(tables)
    minus = group.diff_index_table()
    plus = group.sum_index_table().ravel()
    # Multiplying by g^(N*k) adds N*k to the discrete log, and block index
    # 1 + j holds g^j.
    scaled = np.zeros((f, q), dtype=np.int64)
    scaled[:, 1:] = 1 + (np.arange(q - 1) + n_cls * np.arange(f)[:, None]) % (q - 1)
    # Map k*q + i has i at index 0 and the index of g^(N*k) + g_i at index
    # 1; distinct pairs there make the f*q maps pairwise distinct.
    at_one = plus[np.arange(q) * q + scaled[:, 1, None]]  # [k, i]
    if np.unique(np.arange(q) * q + at_one).size != f * q:
        raise AssertionError("the affine maps are not pairwise distinct")
    return minus, plus, scaled


def _orbit_stabilizer(partition: CyclotomicPartition, plus: np.ndarray, scaled: np.ndarray,
                      multiplier: np.ndarray, translations: list[np.ndarray]) -> bool:
    """Whether the generators' block actions generate all f*q affine maps.

    ``multiplier`` acts as x -> g^N x and ``translations`` as the e basis
    translations, each checked densely already.  Orbit: the translations'
    products, built one basis digit at a time (the rows so far after t_j^c,
    c < p), send block index 0 to all q indices, the one sending it to i
    being x -> x + g_i entry for entry.  Stabilizer: the multiplier's k-th
    power is x -> g^(N*k) x for k < f, its f-th the identity.  So map
    k*q + i, a translation after a multiplier power, is an automorphism.
    ``plus`` and ``scaled`` are the tables of :func:`_affine_tables`.
    """
    q, p, f = partition.tables.q, partition.tables.p, partition.f
    rows = np.arange(q)[None, :]
    for t in translations:
        powers = [rows]
        for _ in range(p - 1):
            powers.append(t[powers[-1]])
        rows = np.concatenate(powers)
    orbit = rows[:, 0]
    if not (np.array_equal(np.sort(orbit), np.arange(q))
            and np.array_equal(rows, plus.reshape(q, q)[orbit])):
        return False
    power = np.arange(q)
    for k in range(f + 1):  # the f-th power must be scaled[0], the identity
        if not np.array_equal(power, scaled[k % f]):
            return False
        power = multiplier[power]
    return True


def _is_affine_map(sigma: np.ndarray, minus: np.ndarray, plus: np.ndarray,
                   scaled: np.ndarray) -> bool:
    """Whether sigma is, entry for entry, one of the f*q maps of the tables.

    Map k*q + i sends block index 0 to i and index 1 (which holds g^0) to
    the index of g^(N*k) + g_i, so i = pi(0) and minus[i, pi(1)] = 1 + N*k
    name the only candidate; sigma must also fix both borders and act on
    the two blocks alike.  Never raises, whatever sigma holds.
    """
    q, f = len(minus), len(scaled)
    if sigma.shape != (2 * q + 2,) or sigma[0] != 0 or sigma[1] != 1:
        return False
    pi = sigma[2: q + 2] - 2
    i, y = int(pi[0]), int(pi[1])
    if not (0 <= i < q and 0 <= y < q):
        return False
    # Unless minus[i, y] is 1 + N*k, the map read off here (scaled[-1] when
    # y == i) differs from pi at index 1, so the comparison decides alone.
    k = (int(minus[i, y]) - 1) // ((q - 1) // f)
    return (np.array_equal(pi, plus[i * q + scaled[k]])
            and np.array_equal(sigma[q + 2:], pi + q + 2))


def _count_by_key_class(h: PmMatrix, minus: np.ndarray, plus: np.ndarray,
                        scaled: np.ndarray) -> int:
    """How many of the f*q affine maps are automorphisms of h, exactly.

    An automorphism permutes the rows and the columns, so it keeps each
    row's and each column's count of -1 entries.  The key of a block index
    is those four counts for its row and column in both blocks, so the block
    action of an automorphism maps each key class onto itself.  Take x0 in
    the rarest class R: for each multiplier power k and each y in R exactly
    one map sends x0 to y, the translation by g_y - g^(N*k) g_x0.  Only
    those f*|R| maps can be automorphisms, and they are checked densely.
    The tables are those of :func:`_affine_tables`.
    """
    q = len(minus)
    neg = h.signs() < 0
    rows, cols = neg.sum(axis=1), neg.sum(axis=0)
    keys = np.stack([rows[2: q + 2], cols[2: q + 2], rows[q + 2:], cols[q + 2:]], axis=1)
    _, key_class, sizes = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    rare = np.flatnonzero(key_class.ravel() == np.argmin(sizes))
    count = 0
    for scale in scaled:
        for i in minus[scale[rare[0]], rare]:
            count += verify_automorphism(h, _bordered(plus[i * q + scale], q))
    return count


@dataclass
class AuditReport:
    """Result of verifying the affine subgroup action on a bordered matrix."""

    q: int
    class_size: int
    asserted_order: int
    generator_results: list[tuple[str, bool]] = field(default_factory=list)
    samples_checked: int = 0
    samples_ok: int = 0
    exhaustive_checked: int = 0
    exhaustive_ok: int = 0
    passed: bool = False

    def to_log(self) -> str:
        lines = [f"{name} {'PASS' if ok else 'FAIL'}" for name, ok in self.generator_results]
        if self.samples_checked:
            lines.append(f"closure_sample {self.samples_ok}/{self.samples_checked} "
                         f"{'PASS' if self.samples_ok == self.samples_checked else 'FAIL'}")
        if self.exhaustive_checked:
            lines.append(f"exhaustive {self.exhaustive_ok}/{self.exhaustive_checked} "
                         f"{'PASS' if self.exhaustive_ok == self.exhaustive_checked else 'FAIL'}")
        lines.append(f"{'PASS' if self.passed else 'FAIL'} order {self.asserted_order} "
                     f"= {self.class_size}*{self.q}")
        return "\n".join(lines) + "\n"


def subgroup_audit(h: PmMatrix, partition: CyclotomicPartition, *,
                   samples: int = 100, exhaustive: bool = False,
                   seed: int = 0) -> AuditReport:
    """Verify the affine subgroup {x -> u*x + a : u in C_0, a in F} on H.

    Checks one multiplier generator of order (q-1)/N and one translation
    generator of order p per basis coefficient densely; when all pass,
    :func:`_orbit_stabilizer` tries to certify that they generate all
    ((q-1)/N) * q maps.  Then comes a random closure sample of composite
    maps: each sample is the product ``s1[s2]`` of the permutations two
    random subgroup elements induce, so the audit does no field arithmetic
    beyond :func:`induced_permutation`.  A sample whose product equals a
    certified map entry for entry (:func:`_is_affine_map`) passes without a
    dense check; any other sample, and every sample without a certificate,
    is checked densely.  With ``exhaustive`` set, every map is certified by
    the orbit-stabilizer step, or, when it fails, counted exactly by
    :func:`_count_by_key_class`.  The verdicts and the counts are the same
    as checking each map densely.
    """
    tables = partition.tables
    q, p, e, n_cls, f = tables.q, tables.p, tables.e, partition.N, partition.f
    report = AuditReport(q=q, class_size=f, asserted_order=f * q)
    if h.n != 2 * q + 2:
        raise ValueError(f"matrix order {h.n} does not match 2(q + 1) = {2 * q + 2}")

    all_ok = True
    actions: list[np.ndarray] = []  # block actions of the generators

    def check(name: str, m: AffineMap) -> bool:
        sigma = induced_permutation(tables, m)
        ok = verify_automorphism(h, sigma)
        report.generator_results.append((name, ok))
        actions.append(_block_action(sigma, q))
        return ok

    mult = int(tables.pow_g(n_cls))  # generates C_0 as a cyclic group
    if tables.element_order(mult) != f:
        raise ValueError(f"multiplier g^{n_cls} has order {tables.element_order(mult)}, expected {f}")
    all_ok &= check(f"multiplier g^{n_cls}", make_affine(partition, mult, 0))
    for i in range(e):  # p**i encodes the i-th basis monomial
        all_ok &= check(f"translation basis {i}", make_affine(partition, 1, p**i))

    certified = False
    if samples > 0 or exhaustive:
        minus, plus, scaled = _affine_tables(partition)
        certified = all_ok and _orbit_stabilizer(partition, plus, scaled, actions[0], actions[1:])

    rng = np.random.default_rng(seed)

    def random_element() -> np.ndarray:
        u = int(tables.pow_g(n_cls * int(rng.integers(f))))
        return induced_permutation(tables, AffineMap(u=u, a=int(rng.integers(q))))

    if samples > 0:
        ok_count = 0
        for _ in range(samples):
            s1 = random_element()
            s2 = random_element()
            product = s1[s2]  # s1 after s2
            ok_count += ((certified and _is_affine_map(product, minus, plus, scaled))
                         or verify_automorphism(h, product))
        report.samples_checked = samples
        report.samples_ok = ok_count
        all_ok &= ok_count == samples

    if exhaustive:
        report.exhaustive_checked = f * q
        report.exhaustive_ok = f * q if certified else _count_by_key_class(h, minus, plus, scaled)
        all_ok &= certified

    report.passed = bool(all_ok)
    return report
