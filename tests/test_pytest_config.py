"""The suite's pytest configuration reports failures instead of hiding them.

``filterwarnings = ["error"]`` turns every warning into an error, including
one raised while pytest builds a failure's report; that aborts the run with
an INTERNALERROR, drops hypothesis's falsifying example and skips every later
test.  A demo file with one failing ``@given`` test and one plain failing
test is run under the repository's config in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

DEMO = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(x):
    assert x < 5


def test_plain_fails():
    assert False
'''


def test_failing_hypothesis_test_reports_its_example_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_demo.py").write_text(DEMO)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "-q", "test_demo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "FAILED" in out and "test_given_fails" in out and "test_plain_fails" in out
    assert "2 failed" in out
