"""scripts/ci_checks.py: its runner on synthetic rows, and its check table."""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

spec = importlib.util.spec_from_file_location("ci_checks", SCRIPTS / "ci_checks.py")
ci_checks = sys.modules["ci_checks"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ci_checks)
Check = ci_checks.Check


def python(code):
    return (sys.executable, "-c", code)


# Each failing row has a passing twin that differs only in what it tests.
# The RSS rows write their bytes: a zero-filled bytearray may touch no page.
ROWS = {
    Check("exit-right", python("raise SystemExit(3)"), 10, code=3): True,
    Check("exit-wrong", python("raise SystemExit(3)"), 10): False,
    Check("stdout-right", python("print('squares=4')"), 10, stdout=r"\Asquares=4\n\Z"): True,
    Check("stdout-wrong", python("print('squares=5')"), 10, stdout=r"\Asquares=4\n\Z"): False,
    Check("rss-under", python("b'x' * (1 << 20)"), 10, rss_mb=40): True,
    Check("rss-over", python("b'x' * (64 << 20)"), 10, rss_mb=40): False,
    Check("time-within", python("import time; time.sleep(0.1)"), 1): True,
    Check("time-past", python("import time; time.sleep(10)"), 1): False,
}

# A fresh interpreter runs the rows, since a child's ru_maxrss starts from its
# parent's RSS high-water mark, and this process's is far above 40 MB. It also
# lists the numpy and recdiv modules that importing the script loaded.
RUN_ROWS = """
import json
import sys
import tempfile
sys.path.insert(0, sys.argv[1])
import ci_checks
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "recdiv"))
rows = [ci_checks.Check(**row) for row in json.load(sys.stdin)]
with tempfile.TemporaryDirectory() as directory:
    complaints = {row.name: ci_checks.run(row, directory) for row in rows}
print(json.dumps({"loaded": loaded, "complaints": complaints}))
"""


@pytest.fixture(scope="module")
def ran():
    rows = json.dumps([dataclasses.asdict(row) for row in ROWS])
    done = subprocess.run(
        [sys.executable, "-c", RUN_ROWS, str(SCRIPTS)],
        input=rows, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_run_reports_each_failure_and_passes_its_twin(ran, row):
    complaint = ran["complaints"][row.name]
    assert (complaint is None) == ROWS[row], complaint


def test_run_names_what_went_wrong(ran):
    complaints = ran["complaints"]
    assert complaints["exit-wrong"].startswith("exit 3, expected 0")
    assert complaints["stdout-wrong"].startswith("stdout 'squares=5\\n' does not match")
    assert complaints["rss-over"].endswith("the limit is 40 MB")
    assert complaints["time-past"] == "ran past its 1 s limit"


def test_importing_the_script_loads_neither_numpy_nor_recdiv(ran):
    assert ran["loaded"] == []


def test_check_names_are_unique():
    names = [check.name for check in ci_checks.CHECKS]
    assert len(set(names)) == len(names)
