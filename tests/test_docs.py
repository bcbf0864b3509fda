"""The demos and the README stay in step with the code.

Every demo runs with its default arguments and exits 0.  Every `relpoly ...`
line of the README's command block parses with the CLI's own parser, and
every option the README's prose names in backticks, such as `mc --trials`
or `--expect-maximum`, is an option of that command (of some command, when
none is named), so a removed option cannot stay documented.  In the same
way every Python object the prose names in backticks, a dotted
`relpoly.tutte` path or an UPPER_CASE or CamelCase identifier such as
`CENSUS_MAX_WIDTH` or `BudgetError`, must exist in relpoly: a removed class
or constant cannot stay documented either.
"""
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import relpoly
from relpoly.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def command_options() -> dict[str, set[str]]:
    """Option strings of each subcommand of the relpoly parser."""
    parser = build_parser()
    (sub,) = parser._subparsers._group_actions
    return {name: set(p._option_string_actions) for name, p in sub.choices.items()}


def readme_command_lines() -> list[str]:
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        lines += [ln for ln in block.splitlines() if ln.startswith("relpoly ")]
    return lines


def readme_option_mentions() -> list[tuple[str | None, str]]:
    """(command or None, option) for each backticked span in the prose that
    is a bare option or a command followed by options."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    commands = command_options()
    mentions = []
    for span in re.findall(r"`([^`\n]+)`", prose):
        words = span.split()
        if words[0] in commands and len(words) > 1 and words[1].startswith("--"):
            mentions += [(words[0], w) for w in words[1:] if w.startswith("--")]
        elif re.fullmatch(r"--[a-z][a-z-]*", span):
            mentions.append((None, span))
    return mentions


def prose_python_mentions(text: str) -> list[str]:
    """The backticked spans of text, outside code blocks, that are a dotted
    relpoly path or an UPPER_CASE or CamelCase identifier."""
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    return [
        span
        for span in re.findall(r"`([^`\n]+)`", prose)
        if re.fullmatch(r"relpoly(\.\w+)+|[A-Z][A-Z0-9_]+|[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)*", span)
    ]


def resolves(path: str) -> bool:
    """Whether a dotted path names a module or an attribute reached from one."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def relpoly_names() -> set[str]:
    """The attributes of relpoly and of each of its modules, and the values
    of their string constants (verdicts such as "NotDivisible")."""
    modules = [relpoly] + [
        importlib.import_module(f"relpoly.{info.name}") for info in pkgutil.iter_modules(relpoly.__path__)
    ]
    names = set()
    for module in modules:
        for name, value in vars(module).items():
            names.add(name)
            if name.isupper() and isinstance(value, str):
                names.add(value)
    return names


def stale_python_mentions(text: str) -> list[str]:
    known = relpoly_names()
    return [
        span
        for span in prose_python_mentions(text)
        if not (resolves(span) if span.startswith("relpoly.") else span in known)
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(relpoly.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_command_block_parses():
    lines = readme_command_lines()
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        build_parser().parse_args(argv)  # a ParameterError fails the test


def test_readme_prose_names_only_existing_options():
    mentions = readme_option_mentions()
    assert ("scan", "--csv") in mentions and (None, "--expect-maximum") in mentions
    options = command_options()
    every = set().union(*options.values())
    unknown = [
        f"{cmd or ''} {opt}".strip()
        for cmd, opt in mentions
        if opt not in (options[cmd] if cmd else every)
    ]
    assert not unknown, unknown


def test_readme_prose_names_only_existing_python_objects():
    mentions = prose_python_mentions(README)
    assert {"relpoly.mc.BAND_SIGMAS", "CENSUS_MAX_WIDTH", "ParameterError", "NotDivisible"} <= set(mentions)
    # negative control: a removed class, constant or attribute is caught
    assert stale_python_mentions(
        "`Graph` and `relpoly.graphs.Graph`, `relpoly.tutte` and `FIXTURE_LIMIT`, `NotDivisible`"
    ) == ["Graph", "relpoly.graphs.Graph", "FIXTURE_LIMIT"]
    assert not stale_python_mentions(README), stale_python_mentions(README)
