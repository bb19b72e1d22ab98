"""The CI workflow's console-script steps, run against ``src/``.

Each ``run: |`` step of ``.github/workflows/tests.yml`` that calls the
``hybridmt`` console script runs as CI runs it, under ``bash -e`` from
the root of a copy of the fixtures, with ``RUNNER_TEMP`` a temporary
directory and a ``hybridmt`` on ``PATH`` that runs ``python -m
hybridmt`` against this checkout's ``src/``.  The copy keeps the steps
from writing into the tree: one writes ``tests/fixtures/typo-root.cfg``.

A step that a broken script still passes pins nothing, so each step
also runs once with a ``hybridmt`` that only prints ``x`` and must fail.
"""

import os
import re
import shutil
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
SRC = os.path.join(ROOT, "src")


def run_steps(text):
    """(name, script) of each step of a workflow whose ``run:`` is a
    ``|`` block: the block's lines, dedented, up to the first non-blank
    line indented no deeper than its ``run:`` key."""
    steps, name = [], None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = re.match(r"\s*- name: (.*)$", line)
        if m:
            name = m.group(1)
        m = re.match(r"( *)run: \|$", line)
        if m:
            block = []
            for body in lines[i + 1 :]:
                if body.strip() and len(body) - len(body.lstrip(" ")) <= len(m.group(1)):
                    break
                block.append(body)
            steps.append((name, textwrap.dedent("\n".join(block)).strip("\n") + "\n"))
    return steps


with open(WORKFLOW, encoding="utf-8") as _fh:
    _WORKFLOW_TEXT = _fh.read()
CONSOLE_STEPS = [
    (name, script)
    for name, script in run_steps(_WORKFLOW_TEXT)
    if re.search(r"(^|[\s|(])hybridmt ", script, re.M)
]


def test_workflow_reader_finds_every_block_step():
    block_steps = re.findall(r"^ *run: \|$", _WORKFLOW_TEXT, re.M)
    assert len(run_steps(_WORKFLOW_TEXT)) == len(block_steps)
    assert len(CONSOLE_STEPS) == 18
    # the seed-1 digest step runs bench/run.py, not the console script
    assert all("bench/run.py" not in script for _name, script in CONSOLE_STEPS)


def _shim(directory, body):
    os.makedirs(directory)
    path = os.path.join(directory, "hybridmt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#!/bin/sh\n%s\n" % body)
    os.chmod(path, 0o755)
    return directory


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    base = tmp_path_factory.mktemp("ci")
    tree = base / "tree"
    shutil.copytree(
        os.path.join(ROOT, "tests", "fixtures"),
        tree / "tests" / "fixtures",
        ignore=shutil.ignore_patterns("typo-root.cfg"),
    )
    shims = {
        "real": _shim(
            str(base / "real"),
            'PYTHONPATH=%s${PYTHONPATH:+:$PYTHONPATH} exec %s -m hybridmt "$@"'
            % (SRC, sys.executable),
        ),
        "broken": _shim(str(base / "broken"), "echo x"),
    }

    def run(script, shim):
        temp = tmp_path_factory.mktemp("runner-temp")
        env = dict(os.environ, RUNNER_TEMP=str(temp))
        env["PATH"] = shims[shim] + os.pathsep + env["PATH"]
        return subprocess.run(
            ["bash", "-e", "-c", script],
            cwd=str(tree),
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )

    return run


@pytest.mark.parametrize(
    "script", [s for _n, s in CONSOLE_STEPS], ids=[n for n, _s in CONSOLE_STEPS]
)
def test_console_script_step_passes(runner, script):
    done = runner(script, "real")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


@pytest.mark.parametrize(
    "script", [s for _n, s in CONSOLE_STEPS], ids=[n for n, _s in CONSOLE_STEPS]
)
def test_console_script_step_fails_under_a_broken_script(runner, script):
    assert runner(script, "broken").returncode != 0
