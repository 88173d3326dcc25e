"""The committed mutants stay applicable: each anchor text occurs once in
its file, and each test that must catch it exists.  Running the mutants
themselves is ``python tests/mutants.py``, outside tier-1."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_anchor_occurs_once_and_names_existing_tests():
    assert MUTANTS
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
        for test in m.tests:
            node = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(\[[\w-]+\])?", test)
            assert node, test
            text = (ROOT / node[1]).read_text(encoding="utf-8")
            assert f"\ndef {node[2]}(" in text, (m.name, test)
