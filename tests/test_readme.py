"""README.md is the user's guide: its Library overview names the whole public
API and one row per library module, its Command line block names every
command, and it stays short enough that the arguments for each shortcut live
in the docstrings, not in a second copy here."""

import argparse
import types
from pathlib import Path

import toriq
from toriq.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else None]


def overview_rows():
    return [line for line in section("Library overview").splitlines() if line.startswith("| `")]


def test_overview_names_every_public_name():
    rows = "\n".join(overview_rows())
    names = [name for name in toriq.__all__
             if not isinstance(getattr(toriq, name), types.ModuleType)]
    assert len(names) >= 46
    assert [name for name in names if f"`{name}`" not in rows] == []


def commands(parser):
    """Every leaf command of the parser, as the words that select it."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return [()]
    return [(word, *rest) for word, sub in subparsers[0].choices.items()
            for rest in commands(sub)]


def test_command_line_block_shows_every_command():
    block = section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    shown = {tuple(line.split()[1:3]) for line in block.splitlines() if line.startswith("toriq ")}
    every = commands(build_parser())
    assert len(every) >= 17
    missing = [" ".join(words) for words in every
               if not any(line[:len(words)] == words for line in shown)]
    assert missing == []


def test_overview_has_a_row_per_library_module():
    modules = sorted(path.stem for path in (ROOT / "src" / "toriq").glob("*.py")
                     if path.stem not in ("__init__", "cli"))
    rows = {row.split("`")[1] for row in overview_rows()}
    assert [name for name in modules if f"toriq.{name}" not in rows] == []


def test_readme_is_short():
    assert len(README.read_bytes()) < 9000
