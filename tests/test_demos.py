"""Smoke test: every demo script and the CLI walkthrough run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def demo_env(extra_path=None):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if extra_path is not None:
        env["PATH"] = os.pathsep.join([str(extra_path), env.get("PATH", "")])
    return env


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_script_runs(script):
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=demo_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_walkthrough_runs(tmp_path):
    # the walkthrough calls the installed `okmod` command; a shim stands in for it
    shim = tmp_path / "okmod"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m okmod.cli "$@"\n')
    shim.chmod(0o755)
    proc = subprocess.run(["sh", str(DEMOS / "cli_walkthrough.sh")],
                          env=demo_env(tmp_path), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 2
