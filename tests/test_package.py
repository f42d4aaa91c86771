import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import eisbasis

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# the names the README documents and the benchmark reads
PUBLIC = [
    "Basis",
    "BasisElement",
    "QSeries",
    "RatMatrix",
    "SpanError",
    "basis_for",
    "classical_basis",
    "cusp_basis",
    "cusp_correction",
    "default_precision",
    "dimension_data",
    "eisenstein",
    "eisenstein_product",
    "express",
    "new_basis",
    "verify_basis",
    "verify_report",
]

# read as eisbasis.<name> by perfbench's workloads and tests
BENCHMARK_READS = [
    "Basis",
    "BasisElement",
    "QSeries",
    "RatMatrix",
    "SpanError",
    "basis_for",
    "default_precision",
    "dimension_data",
    "express",
    "new_basis",
    "verify_report",
]


def test_exports_exactly_the_documented_names():
    assert sorted(eisbasis.__all__) == PUBLIC
    for name in PUBLIC:
        # named as exported, so help() and tracebacks show the public name
        assert getattr(eisbasis, name).__name__ == name
    assert set(BENCHMARK_READS) <= set(eisbasis.__all__)


def test_readme_example_prints_what_its_comments_say():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    assert expected, "the README example prints nothing"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, str(README), "exec"), {})
    assert stdout.getvalue().splitlines() == expected


def test_import_does_not_load_dataclasses_or_inspect():
    # every command pays for the import; pytest itself imports both modules,
    # so the check runs in a fresh isolated interpreter.  -I ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps the run from writing src/ bytecode
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import eisbasis; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", probe, str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = result.stdout.split()
    assert "eisbasis.basis" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded), loaded
