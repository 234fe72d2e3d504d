"""The five benchmark instances, built and audited through the CLI, write and
print the pinned bytes.

The configurations and the pins belong to the benchmark
(``perfbench/workloads.py`` and ``perfbench/expected.json``); these tests
only read them, so the flagship ``matrix_1252.txt`` and the ``aut`` output
(its ``closure_sample`` line included) are checked on every test run and not
only in a benchmark run.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import skewhad as sh
from skewhad.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.workloads import FLAGSHIP, SMALL  # noqa: E402

EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module", params=SMALL + (FLAGSHIP,), ids=lambda inst: inst.name)
def built(request, tmp_path_factory):
    """(instance, work directory, exit code, stdout) of one ``build``."""
    inst, work = request.param, tmp_path_factory.mktemp("work")
    code, out = _run(inst.build_argv(work / inst.name))
    return inst, work, code, out.replace(str(work), "<work>")


def test_build_writes_the_pinned_artifacts(built):
    inst, work, code, out = built
    assert code == 0
    pinned = EXPECTED[inst.name]
    assert out == pinned["stdout"]["build"]
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (work / inst.name).iterdir()}
    assert written == pinned["artifacts"]


def test_aut_prints_the_pinned_audit(built):
    inst, work, _, _ = built
    code, out = _run(["aut", str(work / inst.name / "manifest.txt"), "--exhaustive"])
    assert (code, out) == (0, EXPECTED[inst.name]["stdout"]["aut"])


def test_desk_fixtures_are_the_built_matrices(matrix8, matrix12):
    # conftest builds them by hand over GF(3) and GF(5); build writes the same
    for m, name in ((matrix8, "n8"), (matrix12, "n12")):
        digest = hashlib.sha256(sh.to_matrix_text(m)).hexdigest()
        assert digest == EXPECTED[name]["artifacts"][f"matrix_{m.n}.txt"]
