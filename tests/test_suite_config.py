"""The suite's own pytest configuration keeps failure reports readable."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    """Hypothesis's failure report imports libcst, which warns a
    DeprecationWarning on import; under the repo's ``error::`` filters that
    must not turn the report into an INTERNALERROR."""
    test_file = tmp_path / "test_always_fails.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert proc.returncode == 1, output
