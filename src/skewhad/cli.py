"""Command-line surface: build, verify, rank, aut, sketch, manifest.

Exit codes: 0 when every requested certificate passes, 2 when a certificate
fails (a digest mismatch, or a search no generator passes, which ``build``,
``verify shdf`` and ``aut`` report alike through :func:`certified_search`),
1 for usage and input errors, a file that cannot be read or written among
them.  All output is deterministic plain text so runs can be diffed.

The manifest written by ``build`` records sha256sum-compatible digest lines
for every emitted artifact plus a config block that reproduces the build
bit-exactly:

    # skewhad manifest v1
    # p = 5
    # e = 4
    # N = 16
    # modulus = 2,0,0,0,1
    # generator = 6
    # i0 = 4,5,6,7,8,9,10,11
    # i1 = 0,1,2,3,4,5,6,7
    <sha256>  matrix_1252.txt
    ...
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autgroup, gf, hadamard, ranks, shdf, sketch

MANIFEST_NAME = "manifest.txt"
MANIFEST_HEADER = "# skewhad manifest v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT_FAIL = 2


class CliError(Exception):
    """Input or usage problem; maps to exit code 1."""


@dataclass(frozen=True)
class BuildConfig:
    """Everything needed to reproduce a build bit-exactly (``build`` leaves a
    None modulus or generator to the search)."""

    p: int
    e: int
    N: int
    modulus: tuple[int, ...] | None
    generator: int | None
    i0: tuple[int, ...]
    i1: tuple[int, ...]


def parse_index_set(text: str) -> tuple[int, ...]:
    """Parse "4-11" / "0,2,5" / "0-3,8" into a sorted tuple of indices.

    An index of ``gf.MAX_FIELD_ORDER`` or more is refused before any range
    is expanded: a class index is below N, which divides q - 1 < 2^20.
    """
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise CliError(f"empty entry in index set {text!r}")
        if "-" in part:
            lo_s, _, hi_s = part.partition("-")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise CliError(f"bad range {part!r} in index set") from None
            if hi < lo:
                raise CliError(f"descending range {part!r} in index set")
        else:
            try:
                lo = hi = int(part)
            except ValueError:
                raise CliError(f"bad index {part!r} in index set") from None
        if hi >= gf.MAX_FIELD_ORDER:
            raise CliError(f"index {hi} out of range: a class index is below "
                           f"{gf.MAX_FIELD_ORDER}")
        out.update(range(lo, hi + 1))
    return tuple(sorted(out))


def format_index_set(indices) -> str:
    return ",".join(str(i) for i in sorted(indices))


def sha256_file(path: Path) -> str:
    """The file's sha256, read in 1 MiB chunks into one reused buffer, so no
    whole copy is held and no chunk is allocated afresh."""
    digest, buffer = hashlib.sha256(), bytearray(1 << 20)
    with path.open("rb", buffering=0) as f:
        while size := f.readinto(buffer):
            digest.update(memoryview(buffer)[:size])
    return digest.hexdigest()


def format_manifest(config: BuildConfig, digests: dict[str, str]) -> str:
    lines = [
        MANIFEST_HEADER,
        f"# p = {config.p}",
        f"# e = {config.e}",
        f"# N = {config.N}",
        f"# modulus = {','.join(str(c) for c in config.modulus)}",
        f"# generator = {config.generator}",
        f"# i0 = {format_index_set(config.i0)}",
        f"# i1 = {format_index_set(config.i1)}",
    ]
    lines.extend(f"{digest}  {name}" for name, digest in sorted(digests.items()))
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> tuple[BuildConfig, dict[str, str]]:
    """Inverse of :func:`format_manifest`; each digest names a plain file, each
    config key is a field, and no config field or file name appears twice."""
    fields: dict[str, str] = {}
    digests: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line or line == MANIFEST_HEADER:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise CliError(f"manifest line {lineno}: malformed config line {line!r}")
            key = key.strip()
            if key not in BuildConfig.__dataclass_fields__:
                raise CliError(f"manifest line {lineno}: unknown config field {key!r}")
            if key in fields:
                raise CliError(f"manifest line {lineno}: config field {key!r} is repeated")
            fields[key] = value.strip()
            continue
        digest, sep, name = line.partition("  ")
        if not sep or len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
            raise CliError(f"manifest line {lineno}: malformed digest line {line!r}")
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise CliError(f"manifest line {lineno}: {name!r} is not a plain file name")
        if name in digests:
            raise CliError(f"manifest line {lineno}: {name!r} has a second digest line")
        digests[name] = digest
    try:
        config = BuildConfig(
            p=int(fields["p"]), e=int(fields["e"]), N=int(fields["N"]),
            modulus=tuple(int(c) for c in fields["modulus"].split(",")),
            generator=int(fields["generator"]),
            i0=parse_index_set(fields["i0"]),
            i1=parse_index_set(fields["i1"]),
        )
    except KeyError as exc:
        raise CliError(f"manifest is missing config field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise CliError(f"manifest config is malformed: {exc}") from None
    return config, digests


def read_manifest(path: Path) -> tuple[BuildConfig, dict[str, str]]:
    try:
        text = path.read_text("ascii")
    except UnicodeDecodeError:
        raise CliError(f"{path}: manifest is not ASCII text") from None
    return parse_manifest(text)


def read_matrix_file(path: Path, digest: str | None = None) -> hadamard.PmMatrix | None:
    """The matrix in a text file, or None when ``digest`` is given and is not
    the sha256 of the very bytes read; malformed text raises CliError."""
    data = path.read_bytes()
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        return None
    try:
        return hadamard.parse_matrix_text(data)
    except hadamard.MatrixFormatError as exc:
        raise CliError(f"{path}: {exc}") from None


def read_vector_file(path: Path) -> np.ndarray:
    """One float per line."""
    data = path.read_bytes()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:  # the line of the first byte that is not ASCII
        lineno = len((data[: exc.start].decode("ascii") + "-").splitlines())
        raise CliError(f"{path}: line {lineno}: not ASCII text") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise CliError(f"{path}: line {lineno}: not a number: {line!r}") from None
    return np.array(values, dtype=np.float64)


def write_vector_file(path: Path, values: np.ndarray) -> None:
    floats = np.asarray(values, dtype=np.float64).tolist()
    text = "\n".join(map(repr, floats)) + "\n" if floats else ""
    path.write_bytes(text.encode("ascii"))


def certified_search(config: BuildConfig):
    """shdf.find_valid_generator's (tables, partition, pair, certificate); a
    bad configuration raises CliError, a failed search GeneratorSearchError."""
    fieldcfg = gf.FieldConfig(config.p, config.e, config.modulus, config.generator)
    try:
        return shdf.find_valid_generator(fieldcfg, config.N, config.i0, config.i1)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_build(args) -> int:
    i0 = parse_index_set(args.i0)
    i1 = parse_index_set(args.i1)
    try:
        modulus = tuple(int(c) for c in args.poly.split(",")) if args.poly else None
    except ValueError:
        raise CliError(f"bad --poly {args.poly!r}: expected comma-separated integers") from None
    config = BuildConfig(p=args.p, e=args.e, N=args.N, modulus=modulus, generator=args.gen,
                         i0=i0, i1=i1)
    tables, _, pair, cert = certified_search(config)
    h = hadamard.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrix_name = f"matrix_{h.n}.txt"
    # written before Gate0, whose freed buffers the allocator keeps mapped
    (out / matrix_name).write_bytes(hadamard.to_matrix_text(h))
    report = hadamard.gate0_verify(h)
    (out / "shdf_certificate.txt").write_bytes(cert.to_log().encode("ascii"))
    (out / "gate0_report.txt").write_bytes(report.to_log().encode("ascii"))
    config = replace(config, modulus=tables.modulus, generator=tables.generator)
    digests = {name: sha256_file(out / name)
               for name in (matrix_name, "shdf_certificate.txt", "gate0_report.txt")}
    (out / MANIFEST_NAME).write_bytes(format_manifest(config, digests).encode("ascii"))

    print(f"modulus {','.join(str(c) for c in tables.modulus)}")
    print(f"generator {tables.generator}")
    print(f"SHDF PASS v={tables.q}")
    print(f"GATE0 {'PASS' if report.passed else 'FAIL'} n={report.n}")
    print(f"wrote {out / matrix_name}")
    print(f"wrote {out / MANIFEST_NAME}")
    # a certified pair cannot fail Gate0; belt and braces
    return EXIT_OK if report.passed else EXIT_CERT_FAIL


def cmd_verify(args) -> int:
    path = Path(args.file)
    if args.which == "gate0":
        h = read_matrix_file(path)
        report = hadamard.gate0_verify(h)
        if report.passed:
            print(f"GATE0 PASS n={report.n}")
            return EXIT_OK
        print(f"GATE0 FAIL n={report.n} gram_ok={report.gram_ok} "
              f"skew_ok={report.skew_ok} max_offdiag_gram={report.max_offdiag_gram}")
        return EXIT_CERT_FAIL

    # shdf: recertify from the manifest's recorded configuration
    tables, _, _, _ = certified_search(read_manifest(path)[0])
    print(f"SHDF PASS v={tables.q}")
    return EXIT_OK


def cmd_rank(args) -> int:
    try:  # refuse an unsupported field before the matrix file is read
        ranks._check_field(args.field)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    h = read_matrix_file(Path(args.file))
    if args.tournament:
        gate0 = hadamard.gate0_verify(h)
        if not gate0.passed:
            print(f"GATE0 FAIL n={h.n}")
            return EXIT_CERT_FAIL
        # once Gate0 has passed, the core's rank follows from n and p: no core is formed
        report = ranks.RankReport("tournament", args.field, h.n - 1, gate0.core_rank(args.field))
    else:
        report = ranks.rank_gfp(h.signs(), args.field, label="hadamard")
    print(report.line())
    return EXIT_OK


def cmd_aut(args) -> int:
    """Audit the matrix file a manifest names, once its config is certified
    (as by ``verify shdf``) and the file's digest matches."""
    if args.samples < 0:
        raise CliError(f"--samples must be at least 0, not {args.samples}")
    if args.seed < 0:
        raise CliError(f"--seed must be at least 0, not {args.seed}")
    path = Path(args.file)
    config, digests = read_manifest(path)
    _, partition, _, _ = certified_search(config)
    n = 2 * partition.tables.q + 2
    matrix_name = f"matrix_{n}.txt"
    if matrix_name not in digests:
        raise CliError(f"{path}: no digest line for {matrix_name}")
    matrix_path = path.parent / matrix_name
    h = read_matrix_file(matrix_path, digests[matrix_name])  # the text is dropped once parsed
    if h is None:
        print(f"MISMATCH {matrix_name}")
        return EXIT_CERT_FAIL
    if h.n != n:
        raise CliError(f"{matrix_path}: order {h.n} does not match the manifest's {n}")
    report = autgroup.subgroup_audit(h, partition, samples=args.samples,
                                     exhaustive=args.exhaustive, seed=args.seed)
    sys.stdout.write(report.to_log())
    return EXIT_OK if report.passed else EXIT_CERT_FAIL


def cmd_sketch(args) -> int:
    h = read_matrix_file(Path(args.matrix))
    if not hadamard.gate0_verify(h).passed:
        print(f"GATE0 FAIL n={h.n}")
        return EXIT_CERT_FAIL
    if args.action == "encode":
        x = read_vector_file(Path(args.input))
        try:
            cfg = sketch.SketchConfig(n=h.n, k=args.k)
            packet = sketch.encode(x, h, cfg)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        data = packet.to_bytes()
        Path(args.out).write_bytes(data)
        raw, size, ratio = sketch.byte_accounting(cfg)
        print(f"wrote {args.out}: {len(data)} bytes (raw {raw}, ratio {ratio:.2f})")
        return EXIT_OK
    try:
        packet = sketch.SketchPacket.from_bytes(Path(args.input).read_bytes())
        x = sketch.decode(packet, h)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    write_vector_file(Path(args.out), x)
    print(f"wrote {args.out}: {x.size} values")
    return EXIT_OK


def cmd_manifest(args) -> int:
    root = Path(args.dir)
    _, digests = read_manifest(root / MANIFEST_NAME)
    status = EXIT_OK
    for name, recorded in sorted(digests.items()):
        target = root / name
        if not target.is_file():
            print(f"MISSING {name}")
            status = EXIT_CERT_FAIL
        elif sha256_file(target) != recorded:
            print(f"MISMATCH {name}")
            status = EXIT_CERT_FAIL
        else:
            print(f"OK {name}")
    return status


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this CLI reserves 2
    for certificate failures, so remap usage problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # once per process: a build costs about as much as a desk command
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skewhad",
                     description="Skew-Hadamard matrices from cyclotomic "
                                 "difference families: build, certify, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="search a generator, build, certify, write artifacts")
    p_build.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    p_build.add_argument("--e", type=int, required=True, help="extension degree")
    p_build.add_argument("--N", type=int, required=True, help="cyclotomic class count")
    p_build.add_argument("--i0", required=True, help="class indices of D0, e.g. 4-11")
    p_build.add_argument("--i1", required=True, help="class indices of D1, e.g. 0-7")
    p_build.add_argument("--poly", help="modulus coefficients c0,...,ce (monic); default auto")
    p_build.add_argument("--gen", type=int, help="generator encoding; default searched")
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="re-run a certification")
    p_verify.add_argument("which", choices=("gate0", "shdf"))
    p_verify.add_argument("file", help="matrix file for gate0, manifest for shdf")
    p_verify.set_defaults(func=cmd_verify)

    p_rank = sub.add_parser("rank", help="exact rank over a prime field")
    p_rank.add_argument("file", help="matrix file")
    p_rank.add_argument("--field", type=int, required=True, help="prime field characteristic")
    p_rank.add_argument("--tournament", action="store_true",
                        help="rank the derived 0/1 tournament core instead of the matrix")
    p_rank.set_defaults(func=cmd_rank)

    p_aut = sub.add_parser("aut", help="verify the affine automorphism subgroup "
                                       "on the matrix file a manifest names")
    p_aut.add_argument("file", help="manifest file; the matrix next to it must match its digest")
    p_aut.add_argument("--samples", type=int, default=100,
                       help="closure sample size; derived with no check when the generators "
                            "certify the subgroup, else each sample is checked densely")
    p_aut.add_argument("--exhaustive", action="store_true",
                       help="certify every subgroup element (each a product of the "
                            "checked generators)")
    p_aut.add_argument("--seed", type=int, default=0)
    p_aut.set_defaults(func=cmd_aut)

    p_sketch = sub.add_parser("sketch", help="encode/decode top-k sketch packets")
    p_sketch.add_argument("action", choices=("encode", "decode"))
    p_sketch.add_argument("matrix", help="matrix file")
    p_sketch.add_argument("input", help="vector file (encode) or packet file (decode)")
    p_sketch.add_argument("--k", type=int, default=300, help="retained components (encode)")
    p_sketch.add_argument("--out", required=True, help="output file")
    p_sketch.set_defaults(func=cmd_sketch)

    p_manifest = sub.add_parser("manifest", help="check recorded digests in a directory")
    p_manifest.add_argument("dir")
    p_manifest.set_defaults(func=cmd_manifest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except shdf.GeneratorSearchError as exc:  # raised through certified_search
        print(f"SHDF FAIL: {exc}")
        return EXIT_CERT_FAIL


if __name__ == "__main__":
    sys.exit(main())
