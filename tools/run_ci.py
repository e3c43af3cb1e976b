"""Replay the CI workflow on this machine: python3 tools/run_ci.py

Runs every ``run:`` step of ``.github/workflows/tests.yml`` from the
repository root, in order, as GitHub runs a step with no ``shell:``
(``bash --noprofile --norc -e`` on the step's script).  ``RUNNER_TEMP``
is a fresh temporary directory, and ``PATH`` starts with a
``tas-alamouti`` shim that runs ``python -m tasalamouti.cli`` from
``src`` with this interpreter, in place of the installed entry point.
A step that runs ``pip install`` is skipped: installing would change
this machine and needs a network.  ``uses:`` steps are skipped too.
Only this interpreter runs, not the workflow's Python matrix.

Prints PASS, FAIL or SKIPPED and the wall time of each step, and the
tail of a failed step's output; exits 1 if any step failed.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TAIL_LINES = 40


def _shim(directory: Path) -> None:
    shim = directory / "tas-alamouti"
    shim.write_text(
        "#!/bin/sh\n"
        f'PYTHONPATH="{ROOT / "src"}${{PYTHONPATH:+:$PYTHONPATH}}" '
        f'exec "{sys.executable}" -m tasalamouti.cli "$@"\n'
    )
    shim.chmod(0o755)


def _skip_reason(step: dict) -> str | None:
    if "run" not in step:
        return f"uses {step.get('uses')}"
    if re.search(r"\bpip install\b", step["run"]):
        return "pip install: needs a network and would change this machine"
    return None


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    failed = 0
    with tempfile.TemporaryDirectory(prefix="run-ci-") as scratch:
        scratch = Path(scratch)
        (scratch / "bin").mkdir()
        (scratch / "runner-temp").mkdir()
        _shim(scratch / "bin")
        env = dict(
            os.environ,
            PATH=f"{scratch / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}",
            RUNNER_TEMP=str(scratch / "runner-temp"),
        )
        for job_name, job in workflow["jobs"].items():
            for number, step in enumerate(job["steps"], 1):
                name = step.get("name") or step.get("uses") or step["run"].splitlines()[0]
                label = f"{job_name} step {number}: {name}"
                reason = _skip_reason(step)
                if reason:
                    print(f"SKIPPED  {0.0:7.1f} s  {label} ({reason})", flush=True)
                    continue
                script = scratch / f"step-{number}.sh"
                script.write_text(step["run"])
                start = time.perf_counter()
                done = subprocess.run(
                    ["bash", "--noprofile", "--norc", "-e", str(script)],
                    cwd=ROOT,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
                seconds = time.perf_counter() - start
                verdict = "PASS" if done.returncode == 0 else "FAIL"
                print(f"{verdict:8} {seconds:7.1f} s  {label}", flush=True)
                if done.returncode:
                    failed += 1
                    tail = done.stdout.splitlines()[-TAIL_LINES:]
                    print("\n".join(f"    | {line}" for line in tail), flush=True)
    print(f"{failed} step(s) failed" if failed else "every step passed or was skipped")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
