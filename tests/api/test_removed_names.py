"""The removals: each docs/API.md "Removed in X" table is the contract.

Every name a table lists must be gone from its module, and every
replacement it names must resolve, so the tables cannot drift from the
code in either direction.
"""

import importlib
import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parents[2] / "docs" / "API.md"


def _removed_sections(text: str) -> list[str]:
    """The body of every ``## Removed in ...`` section, in file order."""
    sections = []
    for match in re.finditer(r"^## Removed in [^\n]+\n", text, re.MULTILINE):
        end = text.find("\n## ", match.end())
        sections.append(text[match.end() : end if end >= 0 else len(text)])
    return sections


def _removed_rows() -> list[tuple[str, str | None]]:
    """``(removed, replacement or None)`` for each row of every table."""
    rows = []
    for section in _removed_sections(API_MD.read_text("utf-8")):
        for line in section.splitlines():
            cells = [
                cell.strip() for cell in line.strip().strip("|").split("|")
            ]
            if len(cells) < 2 or not cells[0].startswith("`"):
                continue
            (removed,) = re.findall(r"`([^`]+)`", cells[0])
            replacement = re.findall(r"`([^`]+)`", cells[1])
            assert replacement or cells[1] == "none", line
            rows.append((removed, replacement[0] if replacement else None))
    return rows


ROWS = _removed_rows()


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def test_table_lists_the_removals():
    removed = [name for name, _ in ROWS]
    assert len(removed) == len(set(removed))
    for name in (
        "repro.core.roundtrip",
        "repro.archive.build_archive",
        "repro.baselines.deflate",
        "repro.trace.iter_tsh_chunks",
        "repro.core.pipeline.report_for",
    ):
        assert name in removed


@pytest.mark.parametrize("name", [name for name, _ in ROWS])
def test_removed_name_is_gone(name):
    with pytest.raises((AttributeError, ModuleNotFoundError)):
        _resolve(name)


@pytest.mark.parametrize(
    "name, replacement",
    [row for row in ROWS if row[1] is not None],
    ids=[name for name, replacement in ROWS if replacement is not None],
)
def test_replacement_resolves(name, replacement):
    assert _resolve(replacement) is not None
