"""Block pairs from cyclotomic classes and the bordered difference-family check.

A pair of subsets (D0, D1) of an abelian group of order v is accepted when

* D0 is skew-symmetric: exactly one of x, -x lies in D0 for every x != 0;
* the autocorrelations satisfy P_D0(w) + P_D1(w) == -2 at every shift w != 0;
* |D1| == (v - 1) / 2, so the developed matrices have all row sums +1 as the
  bordered assembly downstream requires (the sum condition alone would also
  admit |D1| == (v + 1) / 2; those pairs are reported as failures with a
  distinct reason).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .groups import _MAX_DENSE_ORDER, GroupSpec, autocorrelation_profile, subset_size


class GeneratorSearchError(RuntimeError):
    """No primitive element passes; ``candidates_tried`` counts checks run."""

    def __init__(self, message: str, candidates_tried: int):
        super().__init__(message)
        self.candidates_tried = candidates_tried


@dataclass(eq=False)
class BlockPair:
    """Blocks D0, D1 given as unions of cyclotomic classes.

    ``d0`` and ``d1`` are membership masks over the additive group's
    canonical element indices.
    """

    group: GroupSpec
    i0: frozenset[int]
    i1: frozenset[int]
    d0: np.ndarray
    d1: np.ndarray

    def __post_init__(self) -> None:
        self.d0.setflags(write=False)
        self.d1.setflags(write=False)


@dataclass(eq=False)
class ShdfCertificate:
    """Exhaustive certification record for a block pair.

    ``sums[w - 1]`` holds P_D0(w) + P_D1(w) for shift index w = 1..v-1 in
    canonical order.  ``passed`` requires skew-symmetry of D0, the correct
    size of D1, and every sum equal to -2; ``reason`` names the first
    violated condition otherwise.
    """

    v: int
    skew_ok: bool
    d1_size_ok: bool
    sums: np.ndarray
    passed: bool
    reason: str = ""

    def to_log(self) -> str:
        """One "shift sum" line per nonzero shift, then a PASS/FAIL trailer."""
        lines = [f"{w + 1} {s}" for w, s in enumerate(self.sums.tolist())]
        lines.append("PASS" if self.passed else f"FAIL {self.reason}")
        return "\n".join(lines) + "\n"


def _class_set(indices, N: int) -> frozenset[int]:
    """The class indices as a set; raises ValueError for one outside [0, N)."""
    out = frozenset(int(i) for i in indices)
    for i in out:
        if not 0 <= i < N:
            raise ValueError(f"class index {i} out of range [0, {N})")
    return out


def blocks_from_indices(partition: gf.CyclotomicPartition, i0, i1) -> BlockPair:
    """Union the classes named by i0 and i1 into membership masks.

    In the canonical ordering [0, g^0, g^1, ...] the element at index 1 + k
    lies in class k mod N, so the masks are index-computable.
    """
    N = partition.N
    i0, i1 = _class_set(i0, N), _class_set(i1, N)
    group = gf.additive_group(partition.tables)
    k = np.arange(partition.tables.q - 1, dtype=np.int64) % N
    d0 = np.concatenate([[False], np.isin(k, sorted(i0))])
    d1 = np.concatenate([[False], np.isin(k, sorted(i1))])
    return BlockPair(group=group, i0=i0, i1=i1, d0=d0, d1=d1)


def check_skew(spec: GroupSpec, d0: np.ndarray) -> bool:
    """Whether exactly one of x, -x belongs to D0 for every nonzero x.

    Equivalent to |D0| == (v - 1) / 2 together with D0 and -D0 disjoint;
    always false when 0 is a member.
    """
    if bool(d0[0]):
        return False
    if subset_size(d0) * 2 != spec.order - 1:
        return False
    neg = spec.neg_perm()
    return not bool(np.any(d0 & d0[neg]))


def check_shdf(spec: GroupSpec, pair: BlockPair) -> ShdfCertificate:
    """Exhaustively evaluate the two defining conditions over all shifts."""
    v = spec.order
    sums = (autocorrelation_profile(spec, pair.d0)
            + autocorrelation_profile(spec, pair.d1))[1:]
    if bool(pair.d0[0]):
        skew_ok = False
        reason = "zero element in D0"
    else:
        skew_ok = check_skew(spec, pair.d0)
        reason = "" if skew_ok else "D0 is not skew-symmetric"
    d1_size_ok = 2 * subset_size(pair.d1) == v - 1
    sums_ok = bool(np.all(sums == -2))
    passed = skew_ok and d1_size_ok and sums_ok
    if not passed and not reason:
        if not d1_size_ok:
            reason = f"|D1| = {subset_size(pair.d1)} != (v-1)/2 = {(v - 1) // 2}"
        elif not sums_ok:
            bad = int(np.flatnonzero(sums != -2)[0]) + 1
            reason = f"sum {int(sums[bad - 1])} != -2 at shift {bad}"
    return ShdfCertificate(v=v, skew_ok=skew_ok, d1_size_ok=d1_size_ok,
                           sums=sums, passed=passed, reason="" if passed else reason)


def _infeasibility(tables: gf.FieldTables, N: int, i0: frozenset[int],
                   i1: frozenset[int]) -> str:
    """Why no choice of generator can certify the index sets, or "".

    Relabeling by another primitive element permutes the classes but keeps
    the class of -1 at (q-1)/2 mod N, since -1 = g^((q-1)/2) for every
    primitive g.  So a skew D0 needs N/2 classes, none of them the negative
    of another, and |D1| = (q-1)/2 needs N/2 classes, whatever g is.
    """
    if 2 * len(i0) != N:
        return f"a skew D0 needs N/2 = {N / 2:g} classes, i0 has {len(i0)}"
    shift = gf.negation_class_shift(tables, N)
    if i0 & {(i + shift) % N for i in i0}:
        return f"i0 meets i0 + {shift} (mod {N}), the classes of -D0, so D0 cannot be skew"
    if 2 * len(i1) != N:
        return f"|D1| = (q-1)/2 needs N/2 = {N / 2:g} classes, i1 has {len(i1)}"
    return ""


def find_valid_generator(fieldcfg: gf.FieldConfig, N: int, i0, i1):
    """First primitive element (by canonical encoding) whose class labeling
    makes the given index sets pass certification.

    Returns ``(tables, partition, pair, certificate)`` for the winner.  A
    pinned generator is the only candidate, checked on the tables
    :func:`gf.build_field` built for it (as is the first candidate of a
    search).  The class indices are range-checked first (ValueError); then
    the conditions that do not depend on the generator are decided once,
    and a config that fails them raises GeneratorSearchError with
    ``candidates_tried == 0`` before any search, as does a field above the
    largest order whose blocks are developed densely, with gf.FieldError.
    Under g' = g^s class i is base class s*i mod N, so candidates whose logs
    agree mod N share one verdict: only the first of each residue is checked
    (at most phi(N) checks, the same winner), and exhaustion raises
    GeneratorSearchError carrying the checks run.
    """
    base = gf.build_field(fieldcfg)
    q = base.q
    if N < 1 or (q - 1) % N != 0:
        raise gf.FieldError(f"N = {N} does not divide q - 1 = {q - 1}")
    i0, i1 = _class_set(i0, N), _class_set(i1, N)
    reason = _infeasibility(base, N, i0, i1)
    if reason:
        raise GeneratorSearchError(reason, candidates_tried=0)
    if q > _MAX_DENSE_ORDER:
        raise gf.FieldError(f"GF({q}) is too large: the blocks are developed as dense "
                            f"tables, at most order {_MAX_DENSE_ORDER}")

    if fieldcfg.generator is None:
        candidates = (1 + np.flatnonzero(np.gcd(base.log[1:], q - 1) == 1)).tolist()
    else:
        candidates = [base.generator]

    checked: set[int] = set()
    for enc in candidates:
        residue = int(base.log[enc]) % N
        if residue in checked:
            continue
        checked.add(residue)
        tables = base if enc == base.generator else gf.tables_for_generator(base, enc)
        partition = gf.cyclotomic_partition(tables, N)
        pair = blocks_from_indices(partition, i0, i1)
        cert = check_shdf(pair.group, pair)
        if cert.passed:
            return tables, partition, pair, cert
    raise GeneratorSearchError(
        f"no primitive element of GF({q}) certifies the index sets "
        f"({len(checked)} class labelings checked)", candidates_tried=len(checked))
