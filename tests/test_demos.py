"""Every demo runs to the end on the current API, in process, and prints
the bytes pinned for it."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout
DEMO_PINS = {
    "01_state_sums": "b655ab26c5607b49e5595f4fde9739492e5fbc9576038c4403ede4571f862f6b",
    "02_conway_potential": "a2a7ddc7d1842f5bb6cf2696f18c2cf52502149e1cd6e3cfd7ea8248cb8d3356",
    "03_generator_tables": "0cb3bfd06be7904ced25012ef8bdb2762a6936e19410125eab853f371ca9cd00",
    "04_symmetries_and_mutation": "33585d3feb8388a200f7dfc3ea9ba79c4c1e414b200760d866214b5f4361dc84",
    "05_property_harness": "d2d81f52040fb5f20ceed09b64778378235e5bbed437021c084543b46bece530",
}


def _run(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_there_are_demos():
    assert [p.stem for p in DEMOS] == sorted(DEMO_PINS)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_completes(path):
    assert hashlib.sha256(_run(path).encode()).hexdigest() == DEMO_PINS[path.stem]


def test_generator_table_demo_decategorifies_every_site():
    out = _run(next(p for p in DEMOS if p.stem.startswith("03_")))
    chi_lines = [line for line in out.splitlines() if "chi =" in line]
    assert chi_lines and all("==" in line and "!=" not in line for line in chi_lines)
