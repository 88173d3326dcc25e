"""Every demo runs to the end on the current API, in process."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def _run(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_completes(path):
    assert _run(path).strip()


def test_generator_table_demo_decategorifies_every_site():
    out = _run(next(p for p in DEMOS if p.stem.startswith("03_")))
    chi_lines = [line for line in out.splitlines() if "chi =" in line]
    assert chi_lines and all("==" in line and "!=" not in line for line in chi_lines)
