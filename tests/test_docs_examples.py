"""The shell commands shown in the docs must actually work.

Extracts every ``repro-experiment ...`` invocation from the fenced
code blocks in README.md and EXPERIMENTS.md, validates it against the
real argparse parser (unknown flags or experiment names fail), and
smoke-runs the cheap ones end-to-end.  The quick stand-alone scripts
under ``examples/`` run too, each in its own interpreter.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import EXPERIMENTS, EXTRA_COMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "EXPERIMENTS.md"]
VALID_EXPERIMENTS = set(EXPERIMENTS) | set(EXTRA_COMMANDS)
#: Experiments cheap enough to run for real during the test.
CHEAP = {"table1", "table2", "designs", "workloads"}


def _fenced_blocks(text: str):
    """Yield the body of every ``` fenced code block."""
    inside = False
    block: list = []
    for line in text.splitlines():
        if line.strip().startswith("```"):
            if inside:
                yield block
                block = []
            inside = not inside
        elif inside:
            block.append(line)


def _strip_comment(line: str) -> str:
    """Drop a trailing ``# ...`` annotation (doc commands carry them)."""
    for marker in (" # ", "\t# "):
        if marker in line:
            line = line.split(marker, 1)[0]
    if line.strip().startswith("#"):
        return ""
    return line.rstrip()


def _doc_commands():
    """Every repro-experiment invocation in the docs, continuations joined."""
    commands = []
    for doc in DOCS:
        lines: list = []
        for block in _fenced_blocks((ROOT / doc).read_text(encoding="utf-8")):
            pending = ""
            for raw in block:
                line = _strip_comment(raw)
                if not line:
                    continue
                joined = (pending + " " + line.strip()).strip() \
                    if pending else line.strip()
                if joined.endswith("\\"):
                    pending = joined[:-1].strip()
                    continue
                pending = ""
                lines.append(joined)
        commands.extend(
            (doc, cmd) for cmd in lines if cmd.startswith("repro-experiment"))
    assert commands, "the docs no longer show any repro-experiment commands?"
    return commands


@pytest.mark.parametrize(
    "doc,command", _doc_commands(),
    ids=[f"{doc}:{cmd[:60]}" for doc, cmd in _doc_commands()])
def test_documented_command_parses(doc, command):
    argv = shlex.split(command)[1:]  # drop the program name
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        pytest.fail(f"{doc} shows a command the CLI rejects: {command}")
    if not args.list:
        assert args.experiment in VALID_EXPERIMENTS, (
            f"{doc} references unknown experiment {args.experiment!r} "
            f"in: {command}")


def test_cheap_documented_commands_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any output files land in tmp
    ran = 0
    for _doc, command in _doc_commands():
        argv = shlex.split(command)[1:]
        args = build_parser().parse_args(argv)
        if args.list or (args.experiment in CHEAP and not args.svg):
            assert main(argv) == 0
            assert capsys.readouterr().out.strip()
            ran += 1
    # Regardless of what the docs show, the canonical cheap paths work.
    assert main(["--list"]) == 0
    listing = capsys.readouterr().out
    for name in sorted(VALID_EXPERIMENTS):
        assert name in listing
    for name in sorted(CHEAP):
        assert main([name]) == 0
        assert capsys.readouterr().out.strip()


#: Stand-alone examples that finish in seconds (``service_client.py``
#: runs in ``test_service.py``; ``graph_analytics_sweep.py`` takes
#: about 11 s and is left out).
QUICK_EXAMPLES = ("quickstart", "custom_workload",
                  "multiprocess_timesharing", "synonyms_and_shootdowns")


@pytest.mark.parametrize("name", QUICK_EXAMPLES)
def test_quick_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_SCALE", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
