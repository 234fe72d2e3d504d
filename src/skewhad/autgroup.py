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
Gram's orbit rows too, and the translation x -> x + 1 (basis translation
0 of the e translations x -> x + p^i) is checked densely.  When both pass,
the other e - 1 basis translations are derived, not checked: conjugating
x -> x + 1 by the k-th power of the multiplier gives x -> x + g^(N*k), an
automorphism too, and the sums of these are the translations by the
GF(p)-span of the powers of g^N, the subfield GF(p)(g^N).  That is the
whole field exactly when g^N, of order f, lies in no proper subfield
GF(p^m), that is when f divides no p^m - 1 with m < e (at order 1252, 39
divides none of 4, 24 and 124).  Otherwise, or when either generator
fails, every basis translation is checked densely.  When all pass, all
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
Without the certificate every sample is checked densely.  When a generator
fails, the exhaustive count stays exact.  When only the multiplier fails,
every translation keeps the matrix, so map (k, a) does exactly when the
block shift by N*k does, and f run checks count them.  Otherwise an
automorphism keeps the -1 counts of each row and column inside the borders
and each block, so only the maps sending one index of the rarest class of
those counts into that class are checked densely, and only those with no
multiplier power when the multiplier passed.
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


def _scaled(q: int, n_cls: int, k: int) -> np.ndarray:
    """The block action of x -> g^(N*k) x: it fixes index 0 and adds N*k to
    the discrete log, and block index 1 + j holds g^j."""
    return np.concatenate([[0], 1 + (np.arange(q - 1) + n_cls * k) % (q - 1)])


def _count_by_key_class(h: PmMatrix, partition: CyclotomicPartition,
                        multiplier_ok: bool) -> int:
    """How many of the f*q affine maps are automorphisms of h, exactly.

    Every affine map fixes the borders and permutes the indices of both
    blocks alike, so an automorphism among them keeps, for each row and each
    column, its count of -1 entries inside each of the three index ranges:
    the borders and the two blocks.  The key of a block index is those
    counts for its row and column in both blocks, twelve in all, so the
    block action of an automorphism maps each key class onto itself.  Take
    x0 in the rarest class R: for each multiplier power k and each y in R
    exactly one map sends x0 to y, the translation by y - z after the power,
    z = g^(N*k) g_x0, formed by one ``add_shift`` when it is checked.  Only
    those f*|R| maps can be automorphisms, and they are checked densely.
    When the multiplier keeps h (``multiplier_ok``), so does each of its
    powers, and map (k, a) is an automorphism exactly when its translation
    is: the |R| maps with k = 0 are checked and their count taken f times.
    When every block index has the same key, R is all q indices, so the
    worst case stays f*q dense checks.
    """
    group = _gf.additive_group(partition.tables)
    q, n_cls, f = group.order, partition.N, partition.f
    neg = h.signs() < 0
    ranges = [0, 2, q + 2]  # the borders, the first block, the second block
    rows = np.add.reduceat(neg, ranges, axis=1, dtype=np.int64)
    cols = np.add.reduceat(neg, ranges, axis=0, dtype=np.int64).T
    keys = np.hstack([rows[2: q + 2], cols[2: q + 2], rows[q + 2:], cols[q + 2:]])
    _, key_class, sizes = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    rare = np.flatnonzero(key_class.ravel() == np.argmin(sizes))
    powers = range(1 if multiplier_ok else f)  # with the multiplier, the translation decides
    minus = group.neg_perm()
    count = 0
    for k in powers:
        scale = _scaled(q, n_cls, k)
        for w in group.add_shift(rare, minus[scale[rare[0]]]):  # y - z for each y in R
            count += verify_automorphism(h, _bordered(group.add_shift(scale, w), q))
    return count * f // len(powers)


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
    its dense check, though only x -> x + 1 is checked densely when the
    others follow (see the module docstring).  No map is formed to certify
    the group: when the generators pass, the f*q maps, pairwise distinct by
    three O(q) facts checked here, are certified with no further step, and
    so is every closure sample and every map of ``exhaustive``.  Otherwise
    each closure sample is the product ``pi1[pi2]`` of two random maps, each
    drawn as a multiplier power and then a translation encoding, and is
    checked densely; ``exhaustive`` counts the automorphisms exactly, by
    run checks of the multiplier powers when every translation passes, else
    with :func:`_count_by_key_class`.  The verdicts and the counts are the
    same as checking each map densely.
    """
    tables = partition.tables
    q, p, e, n_cls, f = tables.q, tables.p, tables.e, partition.N, partition.f
    report = AuditReport(q=q, class_size=f, asserted_order=f * q)
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
    translations = [verify_automorphism(h, _bordered(basis[0], q))]  # x -> x + 1
    # the conjugates x -> x + g^(N*k) of x -> x + 1 span GF(p)(g^N), which is
    # the whole field unless g^N, of order f, lies in a proper subfield
    spans = all((p ** m - 1) % f for m in range(1, e))
    if multiplier_ok and translations[0] and spans:
        translations += [True] * (e - 1)
    else:
        translations += [verify_automorphism(h, _bordered(t, q)) for t in basis[1:]]
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
        if certified:
            report.exhaustive_ok = f * q
        elif all(translations):  # every translation keeps h: the power decides
            report.exhaustive_ok = q * (1 + sum(_keeps_block_shift(h.signs(), n_cls * k)
                                                for k in range(1, f)))
        else:
            report.exhaustive_ok = _count_by_key_class(h, partition, multiplier_ok)

    report.passed = certified and report.samples_ok == samples
    return report
