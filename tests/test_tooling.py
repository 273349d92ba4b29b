"""The test configuration: a failing property test fails alone, and the run goes on."""

import subprocess
import sys

from conftest import REPO_ROOT

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(x):
    assert x != x


def test_plain():
    pass
'''


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    # hypothesis' plugin imports libcst to report a failing @given test, and
    # libcst raises mypy_extensions' DeprecationWarning on import; the
    # project's filterwarnings turn any other DeprecationWarning into an error
    (tmp_path / "test_scratch.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(REPO_ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_scratch.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
