"""Every narrative script in demos/, and the library example in README.md,
runs to completion as a script against the library in src/, with every
warning an error and nothing written to stderr."""
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(args):
    """Run ``python -X dev -W error args`` in a fresh interpreter with src/
    on its path; it must exit 0 with an empty stderr.  Returns its stdout.
    Dev mode turns a leaked file into a ResourceWarning, which ``-W error``
    makes stderr output or a failure."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), (
        proc.stdout[-2000:] + proc.stderr[-2000:]
    )
    return proc.stdout


def test_the_demos_are_there():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    run_fresh([str(demo)])


def test_readme_python_block_runs():
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    run_fresh(["-c", block])
