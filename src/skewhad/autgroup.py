"""Affine maps x -> u*x + a acting on the bordered matrix by index permutation.

With u ranging over the class of 1 in the cyclotomic partition and a over
the whole field, these maps permute the group-indexed block rows and columns
(identically in both blocks, fixing the two border indices) and leave the
assembled matrix invariant entry for entry.  No sign component is needed:
the borders are constant and every block entry depends only on element
differences, which the maps rescale within block-invariant classes.

No table of the f*q maps is formed: each map is built when it is checked.
The block action of x -> g^(N*k) x + a is ``add_shift(_scaled(q, N, k),
w)`` for the a at block index w, a shift of the discrete log and then one
Zech-table sum.  The multiplier generator x -> g^N x, the block shift by
N, is decided by :func:`hadamard._keeps_block_shift`, which verifies the
Gram's orbit rows too.  When it passes, the translations are decided by
the construction's own invariance, an entry of a developed block depending
only on g_j - g_i (:func:`_translations_keep`).  Every translation keeps
the matrix exactly when its border rows and columns are constant on each
block and, in each of the four quadrants, the rows of g^0 .. g^(N-1) are
the quadrant's element-0 row translated: the shift keeps the quadrant, and
the development of that row too, since it fixes 0 and so keeps the row,
and the rows of 0 and g^0 .. g^(N-1) are one per orbit of the shift, so
the two agree everywhere.  The e basis translations x -> x + p^i generate
every translation, so their lines pass with no dense check; when the
multiplier or that check fails, each is checked densely.  When all pass, all
f*q maps are automorphisms with none of them formed (the orbit-stabilizer
argument of Seress, *Permutation Group Algorithms*, CUP 2003): map (k, a)
is the k-th multiplier power followed by the product, digit by digit, of
the basis translations' powers that adds a, and these f*q products are
pairwise distinct by three O(q) facts.  The digit products send block
index 0 to q distinct places; each basis translation is a permutation, so
every product is one; and the multiplier powers fix 0 and send 1 to the
distinct indices 1 + N*k, k < f.  Two equal maps then agree at 0, so have
one translation, and, it being injective, at 1, so have one power.  The
closure-sample line is derived too: a product of two automorphisms is one.
Without the certificate every sample is checked densely.  The exhaustive
count is |K_T| * f/d, K_T the kept translations and d the least multiplier
power of a kept map, found with at most tau(f)*|R| dense checks beyond the
generators (:func:`_count_automorphisms`): 8 in all at order 1252 after
one flipped entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf import CyclotomicPartition
from . import gf as _gf
from .groups import GroupSpec
from .hadamard import PmMatrix, _keeps_block_shift

_CHECK_ROWS = 128  # rows per panel of a dense check


def verify_automorphism(h: PmMatrix, sigma: np.ndarray) -> bool:
    """Whether H[sigma(i), sigma(j)] == H[i, j] for all i, j; ValueError
    unless sigma is an integer array that permutes range(n).

    The rows are compared ``_CHECK_ROWS`` at a time, and the first panel
    that differs decides: no n x n gather is formed."""
    sigma = np.asarray(sigma)
    if (sigma.shape != (h.n,) or sigma.dtype.kind not in "iu"
            or not np.array_equal(np.sort(sigma), np.arange(h.n))):
        raise ValueError(f"sigma is not a permutation of range({h.n})")
    s = h.signs()
    return all(np.array_equal(np.take(s[sigma[i: i + _CHECK_ROWS]], sigma, axis=1),
                              s[i: i + _CHECK_ROWS])
               for i in range(0, h.n, _CHECK_ROWS))


def _bordered(pi: np.ndarray, q: int) -> np.ndarray:
    """The bordered permutation fixing both borders, ``pi`` on each block."""
    return np.concatenate([[0, 1], 2 + pi, q + 2 + pi])


def _translations_keep(x: np.ndarray, group: GroupSpec, n_cls: int) -> bool:
    """Whether every translation keeps the bordered matrix x that the block
    shift by ``n_cls`` keeps (see the module docstring).  Each quadrant's
    column 0 is compared with its element-0 row at -x once, and its rows of
    g^0 .. g^(N-1), less column 0, with :meth:`GroupSpec._rows` of the four
    element-0 rows together, one call per panel of ``_CHECK_ROWS / 2`` rows."""
    q, minus = group.order, group.neg_perm()[: 1 + n_cls]  # for the rows of 0 .. g^(N-1)
    borders = np.stack([x[:2, 2:], x[2:, :2].T]).reshape(4, 2, q)  # each border line by block
    quadrants = [x[i: i + q, j: j + q] for i in (2, q + 2) for j in (2, q + 2)]
    heads, step = np.stack([quadrant[0] for quadrant in quadrants]), _CHECK_ROWS // 2
    if not ((borders == borders[:, :, :1]).all() and np.array_equal(
            np.stack([quadrant[: 1 + n_cls, 0] for quadrant in quadrants]), heads[:, minus])):
        return False
    for lo in range(0, n_cls, step):
        rows = group._rows(heads, np.arange(lo, min(lo + step, n_cls)))
        if not all(np.array_equal(quadrant[1 + lo: 1 + lo + rows.shape[1], 1:], developed)
                   for quadrant, developed in zip(quadrants, rows)):
            return False
    return True


def _scaled(q: int, n_cls: int, k: int) -> np.ndarray:
    """The block action of x -> g^(N*k) x: it fixes index 0 and adds N*k to
    the discrete log, and block index 1 + j holds g^j."""
    return np.concatenate([[0], 1 + (np.arange(q - 1) + n_cls * k) % (q - 1)])


def _count_automorphisms(h: PmMatrix, partition: CyclotomicPartition,
                         multiplier_ok: bool, translations_ok: bool) -> int:
    """How many of the f*q affine maps are automorphisms of h, exactly.

    They form a group K, whose translations K_T are the kernel of its
    projection onto the multiplier powers; the image, a subgroup of the
    cyclic group of order f, is the multiples of its least element d, a
    divisor of f, so |K| = |K_T| * f/d.  When every basis translation passes,
    K_T is all q translations and power d lifts into K exactly when the block
    shift by N*d keeps h.  Otherwise an automorphism fixes the borders and
    acts alike on both blocks, so it keeps each row's and column's count of
    -1 entries inside the borders and each block, and maps onto itself each
    key class: the block indices whose rows and columns in both blocks have
    equal counts.  Take x0 in the rarest class R: of the maps of power k, one
    sends x0 to each y in R, the translation by y - z after the power, z its
    image of x0, and only those |R| can be automorphisms.  They are checked
    densely for power 0, whose passes are K_T, and for each divisor d < f,
    ascending, whose block shift fails, until one passes: at most tau(f)*|R|
    dense checks, tau(f) the number of divisors of f.  The shift by N is the
    multiplier, whose verdict the caller holds; power f lifts with no check.
    """
    group = _gf.additive_group(partition.tables)
    q, n_cls, f = group.order, partition.N, partition.f
    kernel = q  # when every translation passes; (d, a) then keeps h exactly when (d, 0) does
    if not translations_ok:
        neg, ranges = h.signs() < 0, [0, 2, q + 2]  # the borders and the two blocks
        rows = np.add.reduceat(neg, ranges, axis=1, dtype=np.int64)
        cols = np.add.reduceat(neg, ranges, axis=0, dtype=np.int64).T
        keys = np.hstack([rows[2: q + 2], cols[2: q + 2], rows[q + 2:], cols[q + 2:]])
        _, key_class, sizes = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        rare = np.flatnonzero(key_class.ravel() == np.argmin(sizes))
        minus = group.neg_perm()

        def passes(k: int):
            """The dense verdicts on the maps of power k sending x0 into R."""
            scale = _scaled(q, n_cls, k)
            return (verify_automorphism(h, _bordered(group.add_shift(scale, w), q))
                    for w in group.add_shift(rare, minus[scale[rare[0]]]))  # y - z for y in R

        kernel = sum(passes(0))
    for d in (d for d in range(1, f) if f % d == 0):
        lifts = multiplier_ok if d == 1 else _keeps_block_shift(h.signs(), n_cls * d)
        if lifts or (not translations_ok and any(passes(d))):
            return kernel * f // d
    return kernel  # d = f


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

    The generators are the multiplier x -> g^N x, of order f = (q-1)/N, and
    the e basis translations, and every generator line is the verdict of
    its dense check, though no translation is checked densely when the
    multiplier passes and the quadrants' rows show every translation keeps
    H (see the module docstring).  No map is formed to certify
    the group: when the generators pass, the f*q maps, pairwise distinct by
    three O(q) facts checked here, are certified with no further step, and
    so is every closure sample and every map of ``exhaustive``.  Otherwise
    each closure sample is the product ``pi1[pi2]`` of two random maps, each
    drawn as a multiplier power and then a translation encoding, and is
    checked densely.  ``exhaustive`` counts the automorphisms as
    |K_T| * f/d with :func:`_count_automorphisms`.  The verdicts and the
    counts are those of checking each map densely.
    """
    tables = partition.tables
    q, p, e, n_cls, f = tables.q, tables.p, tables.e, partition.N, partition.f
    report = AuditReport(q=q, class_size=f, asserted_order=f * q)
    if samples < 0:
        raise ValueError(f"samples must be at least 0, not {samples}")
    if h.n != 2 * q + 2:
        raise ValueError(f"matrix order {h.n} does not match 2(q + 1) = {2 * q + 2}")

    group = _gf.additive_group(tables)
    basis = [group.add_shift(np.arange(q), w)  # p**i encodes the i-th monomial
             for w in group.indices_of_encodings(p ** np.arange(e))]
    # The three facts that make the f*q maps pairwise distinct (see the
    # module docstring); the third holds as 0 <= N*k < N*f = q - 1.
    images = np.zeros(1, dtype=np.int64)  # of index 0, under each digit product
    for t in basis:
        powers = [images]
        for _ in range(p - 1):
            powers.append(t[powers[-1]])
        images = np.concatenate(powers)
    if (np.unique(images).size < q
            or not all(np.array_equal(np.sort(t), np.arange(q)) for t in basis)):
        raise AssertionError("the affine maps are not pairwise distinct")

    # x -> g^N x, generating C_0, is the block shift by N
    multiplier_ok = _keeps_block_shift(h.signs(), n_cls)
    # the translations keep h exactly when the quadrants are developed, given the shift
    developed = multiplier_ok and _translations_keep(h.signs(), group, n_cls)
    translations = [developed or verify_automorphism(h, _bordered(t, q)) for t in basis]
    report.generator_results = [
        (f"multiplier g^{n_cls}", multiplier_ok),
        *((f"translation basis {i}", ok) for i, ok in enumerate(translations))]
    certified = all(ok for _, ok in report.generator_results)

    if samples > 0 and certified:  # a product of two certified maps is one
        report.samples_ok = samples
    elif samples > 0:
        rng = np.random.default_rng(seed)

        def random_element() -> np.ndarray:
            scale = _scaled(q, n_cls, int(rng.integers(f)))
            return group.add_shift(scale, group.indices_of_encodings(int(rng.integers(q))))

        # pi1 after the second draw: Python draws pi1 before its subscript
        report.samples_ok = sum(
            verify_automorphism(h, _bordered(random_element()[random_element()], q))
            for _ in range(samples))
    report.samples_checked = samples

    if exhaustive:
        report.exhaustive_checked = f * q
        report.exhaustive_ok = _count_automorphisms(h, partition, multiplier_ok,
                                                    all(translations))

    report.passed = certified and report.samples_ok == samples
    return report
