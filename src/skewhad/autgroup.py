"""Affine maps x -> u*x + a acting on the bordered matrix by index permutation.

With u ranging over the class of 1 in the cyclotomic partition and a over
the whole field, these maps permute the group-indexed block rows and columns
(identically in both blocks, fixing the two border indices) and leave the
assembled matrix invariant entry for entry.  No sign component is needed:
the borders are constant and every block entry depends only on element
differences, which the maps rescale within block-invariant classes.

The exhaustive audit checks only the generators densely and then enumerates
the group they generate, the standard closure argument for permutation
groups (Seress, *Permutation Group Algorithms*, CUP 2003): products of
automorphisms are automorphisms, so every element reached is certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf import CyclotomicPartition, FieldTables
from . import gf as _gf
from .hadamard import PmMatrix


# The closure builds its products in chunks of about this many entries: it
# bounds the memory at any order, and was the fastest size on the
# order-1252 instance.
_CHUNK_ENTRIES = 1 << 15


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
    the shape every induced map has; the closure in
    :func:`_count_automorphisms` runs on block actions only and relies on it.
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
    return minus, plus, scaled


def _count_automorphisms(h: PmMatrix, partition: CyclotomicPartition,
                         generators: list[np.ndarray]) -> tuple[int, bool]:
    """How many of the f*q affine maps are automorphisms of h, exactly.

    ``generators`` are the block actions of maps that passed the dense check.
    Automorphisms are closed under composition, so every element of the
    group they generate is one.  That group is enumerated breadth first, as
    permutation arrays.  An affine map is fixed by the images of the indices
    0 and 1, so each product found is compared, entry for entry, with the one
    affine map that has its images there; a product that matches is known by
    that map's number, which is all the frontier and the seen set keep.  The
    affine maps the closure does not reach (none when every generator
    passes) are checked densely.

    Returns the count and whether every closure element is an affine map;
    one that is not means the generators do not generate the asserted group.
    """
    q, f, n_cls = partition.tables.q, partition.f, partition.N
    minus, plus, scaled = _affine_tables(partition)

    def affine_rows(ids: np.ndarray) -> np.ndarray:
        k, i = np.divmod(ids, q)
        return np.take(plus, scaled[k] + (i * q)[:, None])

    # Map k*q + i has i at index 0 and the index of g^(N*k) + g_i at index
    # 1; distinct pairs there make the f*q maps pairwise distinct.
    at_one = plus[np.arange(q) * q + scaled[:, 1, None]]  # [k, i]
    if np.unique(np.arange(q) * q + at_one).size != f * q:
        raise AssertionError("the affine maps are not pairwise distinct")

    seen = np.zeros(f * q, dtype=bool)
    seen[0] = True  # map 0 is the identity
    frontier = np.zeros(1 if generators else 0, dtype=np.int64)
    chunk = max(1, _CHUNK_ENTRIES // q)
    closed = True
    while frontier.size and closed:
        found = []
        for start in range(0, frontier.size, chunk):
            rows = affine_rows(frontier[start: start + chunk])
            products = np.concatenate([rows[:, g] for g in generators])
            i = products[:, 0]
            u = minus[i, products[:, 1]]  # block index of the multiplier
            ids = (u - 1) // n_cls * q + i
            closed = bool(np.all((u > 0) & ((u - 1) % n_cls == 0))) and np.array_equal(
                products, affine_rows(ids))
            if not closed:
                break
            found.append(ids)
        else:
            ids = np.unique(np.concatenate(found))
            frontier = ids[~seen[ids]]
            seen[frontier] = True

    count = int(np.count_nonzero(seen))
    rest = np.flatnonzero(~seen)
    for start in range(0, rest.size, chunk):
        for pi in affine_rows(rest[start: start + chunk]):
            count += verify_automorphism(h, _bordered(pi, q))
    return count, closed


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
    generator of order p per basis coefficient, then a random closure sample
    of composite maps: each sample is the product ``s1[s2]`` of the
    permutations two random subgroup elements induce, so the audit does no
    field arithmetic beyond :func:`induced_permutation`.  With
    ``exhaustive`` set, every one of the ((q-1)/N) * q maps is certified,
    by the closure argument of :func:`_count_automorphisms`: the verdict and
    the count are the same as checking each map densely.
    """
    tables = partition.tables
    q, p, e, n_cls = tables.q, tables.p, tables.e, partition.N
    f = partition.f
    report = AuditReport(q=q, class_size=f, asserted_order=f * q)
    if h.n != 2 * q + 2:
        raise ValueError(f"matrix order {h.n} does not match 2(q + 1) = {2 * q + 2}")

    all_ok = True

    passing: list[np.ndarray] = []  # block actions of the generators that pass

    def check(name: str, m: AffineMap) -> bool:
        sigma = induced_permutation(tables, m)
        ok = verify_automorphism(h, sigma)
        report.generator_results.append((name, ok))
        if ok:
            passing.append(_block_action(sigma, q))
        return ok

    mult = int(tables.pow_g(n_cls))  # generates C_0 as a cyclic group
    if tables.element_order(mult) != f:
        raise ValueError(f"multiplier g^{n_cls} has order {tables.element_order(mult)}, expected {f}")
    all_ok &= check(f"multiplier g^{n_cls}", make_affine(partition, mult, 0))
    for i in range(e):
        a = p**i  # encoding of the i-th basis monomial
        all_ok &= check(f"translation basis {i}", make_affine(partition, 1, a))

    rng = np.random.default_rng(seed)

    def random_element() -> np.ndarray:
        u = int(tables.pow_g(n_cls * int(rng.integers(f))))
        return induced_permutation(tables, AffineMap(u=u, a=int(rng.integers(q))))

    if samples > 0:
        ok_count = 0
        for _ in range(samples):
            s1 = random_element()
            s2 = random_element()
            ok_count += verify_automorphism(h, s1[s2])  # s1 after s2
        report.samples_checked = samples
        report.samples_ok = ok_count
        all_ok &= ok_count == samples

    if exhaustive:
        ok_count, closed = _count_automorphisms(h, partition, passing)
        report.exhaustive_checked = f * q
        report.exhaustive_ok = ok_count
        all_ok &= closed and ok_count == f * q

    report.passed = bool(all_ok)
    return report
