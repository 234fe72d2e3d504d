"""Per-layer tracing from outside the library.

In a traced run the benchmark replaces functions of the skewhad modules
with timing wrappers: every public module-level function of the library
layers, the methods in :data:`WRAPPED` and ``cli.main``.  A wrapper replaces
the module attribute and every ``from ... import`` binding of the same object
in the other skewhad modules, so calls made through either lookup are
recorded; the library source is not touched.  Untraced runs install nothing.

Each call becomes a span ``(span_id, parent_id, op_id, name, start, end)``.
Spans of one benchmark operation share ``op_id``.  A span's self time is its
duration minus the time its direct child spans cover.  Spans stay in memory
until :meth:`Tracer.write`.

The per-layer metrics are per pass of the workload (totals divided by the
number of passes), so that a faster program, which fits more passes into
the same seconds, does not show larger counts and times.
"""

from __future__ import annotations

import functools
import inspect
import json
import pathlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("gf", "groups", "shdf", "hadamard", "ranks", "autgroup", "sketch", "cli")
LIBRARY = LAYERS[:-1]

# (module, attribute) pairs wrapped besides the public functions of LIBRARY;
# "Class.method" wraps a method on the class.  The methods are those the
# per-layer metrics name and those the cli layer calls on library objects.
WRAPPED = (
    ("groups", "GroupSpec.diff_index_table"), ("groups", "GroupSpec.sum_index_table"),
    ("groups", "GroupSpec.field_additive"), ("groups", "GroupSpec.neg_perm"),
    ("groups", "GroupSpec.add_shift"), ("groups", "GroupSpec.indices_of_encodings"),
    ("hadamard", "PmMatrix.signs"), ("hadamard", "Gate0Report.to_log"),
    ("shdf", "ShdfCertificate.to_log"), ("autgroup", "AuditReport.to_log"),
    ("sketch", "SketchPacket.to_bytes"), ("sketch", "SketchPacket.from_bytes"),
    ("cli", "main"), ("cli", "sha256_file"),
)


def public_functions(module) -> list[str]:
    """Names of the public functions defined in ``module`` itself."""
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and not name.startswith("_")
            and value.__module__ == module.__name__]

CLI_COMMANDS = ("build", "manifest", "verify", "rank", "aut", "sketch")


def gfp_ops_computed(n: int, rank: int) -> int:
    """Multiply-adds of dense elimination of an n x n matrix with pivots on
    the diagonal, worked out from n and the rank rather than counted: the
    pivot in step r updates the n - r - 1 rows below it over n - r columns.
    """
    return sum((n - r - 1) * (n - r) for r in range(rank))


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span_id, parent_id, name, start, child_time]
        self._next_id = 0
        self._op_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, parent, name, start, child = self._stack.pop()
        if self._stack:
            self._stack[-1][4] += end - start
        self.spans.append((sid, parent, self._op_id, name, start, end, end - start - child))

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; nested spans share its id."""
        self._op_id += 1
        self._enter(f"bench.{name}")
        try:
            yield
        finally:
            self._exit()

    def _in_cli(self) -> bool:
        return any(frame[2].startswith("cli.") for frame in self._stack)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, fn, name_of=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of :data:`LIBRARY` and :data:`WRAPPED`
        in the skewhad package and its modules."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        hooks = self._hooks()
        targets = [(layer, name) for layer in LIBRARY
                   for name in public_functions(getattr(package, layer))]
        for layer, attr in targets + list(WRAPPED):
            module = getattr(package, layer)
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            name_of, on_result = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(
                        self._wrap(name, raw.__func__, name_of, on_result)))
                else:
                    self._set(cls, meth, self._wrap(name, raw, name_of, on_result))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, name_of, on_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for meth in ("write_bytes", "write_text"):
            self._set(pathlib.Path, meth, self._count_writes(pathlib.Path.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _count_writes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, data, *args, **kwargs):
            written = fn(path, data, *args, **kwargs)
            if tracer._in_cli():
                tracer.counters["cli.bytes_written"] += written
            return written

        return wrapper

    def _hooks(self):
        c = self.counters

        def rank_gfp_name(args, kwargs):
            p = args[1] if len(args) > 1 else kwargs["p"]
            return f"ranks.rank_gf{p}"

        def rank_gfp_done(args, kwargs, report):
            c["ranks.gfp_ops_computed"] += gfp_ops_computed(report.size, report.rank)

        def cli_name(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.{argv[0]}" if argv and argv[0] in CLI_COMMANDS else "cli.other"

        return {
            "hadamard.parse_matrix_text": (
                None, lambda a, k, r: c.update({"hadamard.parse_bytes": len(a[0])})),
            "ranks.rank_gfp": (rank_gfp_name, rank_gfp_done),
            "autgroup.subgroup_audit": (
                None, lambda a, k, r: c.update({"autgroup.elements_certified": r.exhaustive_checked})),
            "sketch.to_bytes": (None, lambda a, k, r: c.update({"sketch.packet_bytes": len(r)})),
            "cli.main": (cli_name, None),
        }

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[3]] += span[6]
        return out

    def calls(self) -> Counter:
        return Counter(span[3] for span in self.spans)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass as ``{name: (value, unit)}``."""
        st = {name: value / passes for name, value in self.self_times().items()}
        calls = Counter({name: value / passes for name, value in self.calls().items()})
        c = Counter({name: value / passes for name, value in self.counters.items()})

        def s(name):
            return (st.get(name, 0.0), "s")

        def n(value):
            return (value, "count")

        searches = calls["shdf.find_valid_generator"]
        certified = c["autgroup.elements_certified"]
        m = {
            "gf.build_field_s": s("gf.build_field"),
            "gf.build_field_calls": n(calls["gf.build_field"]),
            "gf.tables_for_generator_s": s("gf.tables_for_generator"),
            "gf.cyclotomic_partition_s": s("gf.cyclotomic_partition"),
            "groups.autocorrelation_profile_s": s("groups.autocorrelation_profile"),
            "groups.diff_index_table_s": s("groups.diff_index_table"),
            "groups.sum_index_table_s": s("groups.sum_index_table"),
            "shdf.find_valid_generator_s": s("shdf.find_valid_generator"),
            "shdf.check_shdf_s": s("shdf.check_shdf"),
            "shdf.searches": n(searches),
            "shdf.candidates_tried": (calls["shdf.check_shdf"] / searches if searches else 0.0,
                                      "ratio"),
            "hadamard.build_bordered_s": s("hadamard.build_bordered_from_blocks"),
            "hadamard.gram_s": s("hadamard.gram_matrix"),
            "hadamard.gate0_s": s("hadamard.gate0_verify"),
            "hadamard.gate0_calls": n(calls["hadamard.gate0_verify"]),
            "hadamard.parse_s": s("hadamard.parse_matrix_text"),
            "hadamard.parse_bytes": (c["hadamard.parse_bytes"], "bytes"),
            "hadamard.to_text_s": s("hadamard.to_matrix_text"),
            "hadamard.normalize_s": s("hadamard.normalize_core_tournament"),
            "ranks.rank_gf2_s": s("ranks.rank_gf2"),
            "ranks.rank_gf3_s": s("ranks.rank_gf3"),
            "ranks.rank_gf5_s": s("ranks.rank_gf5"),
            "ranks.gfp_ops_computed": n(c["ranks.gfp_ops_computed"]),
            "autgroup.subgroup_audit_s": s("autgroup.subgroup_audit"),
            "autgroup.verify_automorphism_s": s("autgroup.verify_automorphism"),
            "autgroup.verify_calls": n(calls["autgroup.verify_automorphism"]),
            "autgroup.induced_permutation_s": s("autgroup.induced_permutation"),
            "autgroup.elements_certified": n(certified),
            "autgroup.checks_per_element": (
                calls["autgroup.verify_automorphism"] / certified if certified else 0.0, "ratio"),
            "sketch.transform_s": s("sketch.transform"),
            "sketch.inverse_transform_s": s("sketch.inverse_transform"),
            "sketch.top_k_s": s("sketch.top_k_indices"),
            "sketch.to_bytes_s": s("sketch.to_bytes"),
            "sketch.from_bytes_s": s("sketch.from_bytes"),
            "sketch.packet_bytes": (c["sketch.packet_bytes"], "bytes"),
        }
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.self_s"] = s(f"cli.{cmd}")
        m["cli.sha256_s"] = s("cli.sha256_file")
        m["cli.bytes_written"] = (c["cli.bytes_written"], "bytes")
        for layer in LAYERS + ("bench",):
            m[f"layer.{layer}_s"] = (sum(v for k, v in st.items()
                                         if k.split(".", 1)[0] == layer), "s")
        wall = sum(span[5] - span[4] for span in self.spans if span[1] == -1) / passes
        # The cli command spans' self time holds argparse and file I/O, but
        # also any library work that no wrapper covers, so it is reported on
        # its own and left out of the attributed share.
        cli_self = sum(m[f"cli.{cmd}.self_s"][0] for cmd in CLI_COMMANDS) + st.get("cli.other", 0.0)
        library = sum(m[f"layer.{layer}_s"][0] for layer in LAYERS) - cli_self
        m["trace.wall_s"] = (wall, "s")
        m["trace.attributed_frac"] = (library / wall if wall else 0.0, "ratio")
        m["trace.cli_self_frac"] = (cli_self / wall if wall else 0.0, "ratio")
        m["trace.spans"] = n(len(self.spans) / passes)
        return m

    def write(self, path: pathlib.Path) -> None:
        """One JSON array per span: id, parent, op, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, op, name, start, end, _ in self.spans:
                fh.write(json.dumps([sid, parent, op, name, round(start, 9), round(end, 9)]))
                fh.write("\n")
