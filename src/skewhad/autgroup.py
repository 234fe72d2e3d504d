"""Affine maps x -> u*x + a acting on the bordered matrix by index permutation.

With u ranging over the class of 1 in the cyclotomic partition and a over
the whole field, these maps permute the group-indexed block rows and columns
(identically in both blocks, fixing the two border indices) and leave the
assembled matrix invariant entry for entry.  No sign component is needed:
the borders are constant and every block entry depends only on element
differences, which the maps rescale within block-invariant classes.

Every map the audit checks comes from one table, :func:`_affine_tables`:
the block action of x -> g^(N*k) x + g_i is ``plus[i*q + scaled[k]]``, and
the generators and closure samples are such maps or products of two.
The multiplier generator x -> g^N x, the block shift by N, is decided by
:func:`hadamard._keeps_block_shift`, which verifies the Gram's orbit rows
too; only the e translation generators are checked densely.  When all
pass, the orbit-stabilizer step of Schreier-Sims (Seress, *Permutation
Group Algorithms*, CUP 2003) certifies the rest: the translations move
block index 0 to all q indices, the multiplier's powers are its
stabilizer, and every map is a product of the two, so all f*q maps are
automorphisms.  The closure-sample line is then derived: a product of two
automorphisms is one.
Without the certificate every sample is checked densely.  When a generator
fails, the exhaustive count stays exact: an automorphism keeps the -1
counts of each row and column inside the borders and each block, so only
the maps sending one index of the rarest class of those counts into that
class are checked densely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf import CyclotomicPartition
from . import gf as _gf
from .hadamard import PmMatrix, _keeps_block_shift


def verify_automorphism(h: PmMatrix, sigma: np.ndarray) -> bool:
    """Whether H[sigma(i), sigma(j)] == H[i, j] for all i, j; ValueError
    unless sigma is an integer array that permutes range(n)."""
    sigma = np.asarray(sigma)
    if (sigma.shape != (h.n,) or sigma.dtype.kind not in "iu"
            or not np.array_equal(np.sort(sigma), np.arange(h.n))):
        raise ValueError(f"sigma is not a permutation of range({h.n})")
    s = h.signs()
    return bool(np.array_equal(np.take(np.take(s, sigma, axis=0), sigma, axis=1), s))


def _bordered(pi: np.ndarray, q: int) -> np.ndarray:
    """The bordered permutation fixing both borders, ``pi`` on each block."""
    return np.concatenate([[0, 1], 2 + pi, q + 2 + pi])


def _affine_tables(partition: CyclotomicPartition):
    """Index tables for the f*q maps x -> g^(N*k) x + g_i, numbered k*q + i.

    Returns ``plus`` flattened with plus[a*q + x] the index of g_x + g_a,
    and ``scaled`` with scaled[k] the block action of x -> g^(N*k) x, so
    that the block action of map k*q + i is ``plus[i*q + scaled[k]]``.
    """
    tables = partition.tables
    q, f, n_cls = tables.q, partition.f, partition.N
    plus = _gf.additive_group(tables).sum_index_table().ravel()
    # Multiplying by g^(N*k) adds N*k to the discrete log, and block index
    # 1 + j holds g^j.
    scaled = np.zeros((f, q), dtype=np.int64)
    scaled[:, 1:] = 1 + (np.arange(q - 1) + n_cls * np.arange(f)[:, None]) % (q - 1)
    # Map k*q + i has i at index 0 and the index of g^(N*k) + g_i at index
    # 1; distinct pairs there make the f*q maps pairwise distinct.
    at_one = plus[np.arange(q) * q + scaled[:, 1, None]]  # [k, i]
    keys = np.sort(np.arange(q) * q + at_one, axis=None)
    if not np.diff(keys).all():
        raise AssertionError("the affine maps are not pairwise distinct")
    return plus, scaled


def _orbit_stabilizer(partition: CyclotomicPartition, plus: np.ndarray, scaled: np.ndarray,
                      multiplier: np.ndarray, translations: list[np.ndarray]) -> bool:
    """Whether the generators' block actions generate all f*q affine maps.

    ``multiplier`` acts as x -> g^N x and ``translations`` as the e basis
    translations, each checked already.  Orbit: the translations'
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


def _count_by_key_class(h: PmMatrix, partition: CyclotomicPartition, plus: np.ndarray,
                        scaled: np.ndarray) -> int:
    """How many of the f*q affine maps are automorphisms of h, exactly.

    Every affine map fixes the borders and permutes the indices of both
    blocks alike, so an automorphism among them keeps, for each row and each
    column, its count of -1 entries inside each of the three index ranges:
    the borders and the two blocks.  The key of a block index is those
    counts for its row and column in both blocks, twelve in all, so the
    block action of an automorphism maps each key class onto itself.  Take
    x0 in the rarest class R: for each multiplier power k and each y in R
    exactly one map sends x0 to y, the translation by g_y - g^(N*k) g_x0.
    Only those f*|R| maps can be automorphisms, and they are checked
    densely.  When every block index has the same key, R is all q indices
    and all f*q maps are checked, so the worst case stays f*q dense checks.
    The tables are those of :func:`_affine_tables`.
    """
    q = partition.tables.q
    minus = _gf.additive_group(partition.tables).diff_index_table()  # g_y - g_a at [a, y]
    neg = h.signs() < 0
    ranges = [0, 2, q + 2]  # the borders, the first block, the second block
    rows = np.add.reduceat(neg, ranges, axis=1, dtype=np.int64)
    cols = np.add.reduceat(neg, ranges, axis=0, dtype=np.int64).T
    keys = np.hstack([rows[2: q + 2], cols[2: q + 2], rows[q + 2:], cols[q + 2:]])
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

    Every map comes from the tables of :func:`_affine_tables`.  Checks one
    multiplier generator of order (q-1)/N, the block shift by N, with
    :func:`hadamard._keeps_block_shift` and one translation generator of
    order p per basis coefficient densely; when all pass,
    :func:`_orbit_stabilizer` tries to certify that they generate all
    ((q-1)/N) * q maps.  A certificate settles the rest with no draw and no
    further check: every closure sample, a product of two certified maps,
    passes, and so does every map of ``exhaustive``.  Without one, each
    closure sample is the product ``pi1[pi2]`` of two random table maps,
    each drawn as a multiplier power and then a translation encoding, and
    is checked densely; ``exhaustive`` counts the automorphisms exactly
    with :func:`_count_by_key_class`.  The verdicts and the counts are the
    same as checking each map densely.
    """
    tables = partition.tables
    q, p, e, n_cls, f = tables.q, tables.p, tables.e, partition.N, partition.f
    report = AuditReport(q=q, class_size=f, asserted_order=f * q)
    if h.n != 2 * q + 2:
        raise ValueError(f"matrix order {h.n} does not match 2(q + 1) = {2 * q + 2}")

    plus, scaled = _affine_tables(partition)
    index_of = _gf.additive_group(tables).indices_of_encodings(np.arange(q))
    # p**i encodes the i-th basis monomial
    translations = [plus[index_of[p**i] * q + scaled[0]] for i in range(e)]

    report.generator_results = [  # x -> g^N x, generating C_0, is the block shift by N
        (f"multiplier g^{n_cls}", _keeps_block_shift(h.signs(), n_cls)),
        *((f"translation basis {i}", verify_automorphism(h, _bordered(t, q)))
          for i, t in enumerate(translations))]
    all_ok = all(ok for _, ok in report.generator_results)

    certified = (all_ok and (samples > 0 or exhaustive)
                 and _orbit_stabilizer(partition, plus, scaled, scaled[1 % f], translations))

    if samples > 0 and certified:  # a product of two certified maps is one
        report.samples_ok = samples
    elif samples > 0:
        rng = np.random.default_rng(seed)

        def random_element() -> np.ndarray:
            k = int(rng.integers(f))
            return plus[index_of[int(rng.integers(q))] * q + scaled[k]]

        # pi1 after the second draw: Python draws pi1 before its subscript
        report.samples_ok = sum(
            verify_automorphism(h, _bordered(random_element()[random_element()], q))
            for _ in range(samples))
    report.samples_checked = samples
    all_ok &= report.samples_ok == samples

    if exhaustive:
        report.exhaustive_checked = f * q
        report.exhaustive_ok = (f * q if certified
                                else _count_by_key_class(h, partition, plus, scaled))
        all_ok &= certified

    report.passed = bool(all_ok)
    return report
