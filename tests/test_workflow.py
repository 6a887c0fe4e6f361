"""The CI workflow's "Installed console script" step, run as written.

The step's ``run: |`` block is read out of ``.github/workflows/tests.yml`` as
text and run with ``bash -eo pipefail``. An ``interdiv`` shim first on
``PATH`` stands in for the installed console script, so the block exercises
the CLI from this checkout's sources.
"""
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Installed console script"


def run_block(workflow: Path, step: str) -> str:
    """The dedented ``run: |`` block of the step named ``step``."""
    lines = workflow.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {step}")
    run_at = start + 1
    key = lines[run_at]
    assert key.strip() == "run: |", f"step {step!r} has no run block: {key!r}"
    key_indent = len(key) - len(key.lstrip())
    block = []
    for line in lines[run_at + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= key_indent:
            break
        block.append(line)
    indent = min(len(line) - len(line.lstrip()) for line in block if line.strip())
    return "\n".join(line[indent:] for line in block) + "\n"


@pytest.mark.skipif(shutil.which("bash") is None or shutil.which("taskset") is None,
                    reason="the step needs bash and taskset")
def test_installed_console_script_step(tmp_path):
    script = run_block(WORKFLOW, STEP)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "interdiv"
    shim.write_text(
        "#!/bin/sh\n"
        f"exec {shlex.quote(sys.executable)} -c "
        "'import sys; from interdiv.cli import main; sys.exit(main())' \"$@\"\n"
    )
    shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["RUNNER_TEMP"] = str(tmp_path)
    proc = subprocess.run(["bash", "-eo", "pipefail", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
