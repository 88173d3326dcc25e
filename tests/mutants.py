"""Hand-made mutants of the fast paths, each with the tests that must catch it.

Each entry of ``MUTANTS`` is one mutant: a file of the repository, the exact
text it replaces there (found once), the text that breaks it and the tests
that must fail with it, as pytest node ids.  A fast-path test that a later
change makes vacuous then shows as a surviving mutant.

Run ``python tests/mutants.py`` from anywhere: each mutant is applied to a
fresh temporary copy of the tree, and only its tests run, one pytest process
at a time.  It prints one line per mutant and exits 1 if a named test does
not fail on its mutant or an anchor text is not found once.  With words,
``python tests/mutants.py merge least``, it runs only the mutants whose name
contains one of them, so a change to one fast path reruns its own mutants
in seconds; with none it runs them all.  Tier-1 runs
only ``test_mutants.py``, which checks the anchors and the test names, and
starts no process.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("frontier merge keeps the incoming least state", "src/tanglenabla/states.py",
           "                    elif t < v:\n"
           "                        dst[e] = t + (v & mask) - half\n",
           "                    elif t < v:\n"
           "                        dst[e] = v + (t & mask) - half\n",
           ("tests/test_states.py::test_int_terms_match_the_brute_force_on_seeded_diagrams",)),
    Mutant("signed merge without its sign/offset correction", "src/tanglenabla/states.py",
           "                        dst[e] = v + (t & mask) - half\n",
           "                        dst[e] = v + (t & mask)\n",
           ("tests/test_states.py::test_int_terms_match_the_brute_force_on_seeded_diagrams",
            "tests/test_nabla.py::test_values_decode_at_h_minus_one_as_eval_h_does",
            "tests/test_differential.py::test_frontier_matches_both_oracles_on_seeded_diagrams")),
    Mutant("h corner not negated at h = -1", "src/tanglenabla/states.py",
           "hq = _H_QUADRANT if at_h else (4, 4)",
           "hq = (4, 4)",
           ("tests/test_states.py::test_int_terms_match_the_brute_force_on_seeded_diagrams",
            "tests/test_nabla.py::test_values_decode_at_h_minus_one_as_eval_h_does",
            "tests/test_nabla.py::test_packed_family_at_h_matches_the_collapse_on_seeded_diagrams",
            "tests/test_golden_cli.py::test_check_json_digests")),
    Mutant("least states shifted one bit too far", "src/tanglenabla/states.py",
           "marks = [tuple([x << k for x in row]) for row in marker_codes(m)]",
           "marks = [tuple([x << k + 1 for x in row]) for row in marker_codes(m)]",
           ("tests/test_states.py::test_int_terms_match_the_brute_force_on_seeded_diagrams",)),
    Mutant("lookahead one crossing too eager", "src/tanglenabla/states.py",
           "if (need[i + 1] & ~nxt).bit_count() > m - i - 1:",
           "if (need[i + 1] & ~nxt).bit_count() > m - i - 2:",
           ("tests/test_states.py::test_brute_force_oracle_on_random_diagrams",
            "tests/test_states.py::test_int_terms_match_the_brute_force_on_seeded_diagrams")),
    Mutant("glueing sum without the merged-term addition", "src/tanglenabla/verify.py",
           "acc[e] = acc.get(e, 0) + c1 * c2",
           "acc[e] = c1 * c2",
           ("tests/test_verify.py::test_one_pass_glueing_sum_matches_the_site_scan",)),
    Mutant("E_GRADING check of the generator heads removed", "src/tanglenabla/gradings.py",
           "    if heads >> layout.kbits & 3:\n",
           "    if 0:\n",
           ("tests/test_gradings.py::test_off_by_half_grading_is_e_grading_in_the_library",
            "tests/test_cli.py::test_non_integral_grading_is_e_grading")),
    Mutant("euler decoration sign not flipped on an odd number of bits",
           "src/tanglenabla/gradings.py",
           "chi.get(e + dk, 0) + (-c if odd else c)",
           "chi.get(e + dk, 0) + c",
           ("tests/test_gradings.py::test_frontier_euler_matches_the_generator_list",
            "tests/test_gradings.py::test_euler_identity_with_closed_factor",
            "tests/test_acceptance.py::test_criterion_5_euler_characteristic")),
    Mutant("euler table scan without the first term's decorations",
           "src/tanglenabla/gradings.py",
           "chain([first + dk for dk, _ in decorations], rest)",
           "chain([first], rest)",
           ("tests/test_gradings.py::test_frontier_euler_matches_the_generator_list",
            "tests/test_gradings.py::test_frontier_euler_matches_the_generator_list_on_hypothesis_diagrams",
            "tests/test_golden_cli.py::test_more_cli_digests")),
    Mutant("nabla decoder without the first-corner tie-break", "src/tanglenabla/nabla.py",
           "        if len(new) > 1:\n",
           "        if 0:\n",
           ("tests/test_differential.py::test_state_sum_and_gradings_match_brute_force",
            "tests/test_differential.py::test_frontier_matches_both_oracles_on_seeded_diagrams",
            "tests/test_differential.py::test_frontier_matches_both_oracles_on_hypothesis_diagrams",
            "tests/test_differential.py::test_frontier_matches_the_state_sum_at_fourteen_to_twenty_crossings")),
    Mutant("euler_char check without (-1)^h", "src/tanglenabla/verify.py",
           "(-1) ** layout.grading(low)[1] * sizes[g]",
           "sizes[g]",
           ("tests/test_verify.py::test_euler_char_on_given_diagrams",
            "tests/test_verify.py::test_each_property_passes_small_run[euler_char]",
            "tests/test_golden_cli.py::test_check_json_digests")),
    Mutant("set_pm_one without the sign at -1", "src/tanglenabla/verify.py",
           "out[k] = out.get(k, 0) + (-c if sign < 0 and x & 2 else c)",
           "out[k] = out.get(k, 0) + c",
           ("tests/test_verify.py::test_set_pm_one_weighs_the_sign_at_minus_one",)),
    Mutant("(m^-1 - m) p in place of (m - m^-1) p", "src/tanglenabla/verify.py",
           "        out[e + x] = out.get(e + x, 0) + unit * c\n"
           "        out[e - x] = out.get(e - x, 0) - unit * c\n",
           "        out[e + x] = out.get(e + x, 0) - unit * c\n"
           "        out[e - x] = out.get(e - x, 0) + unit * c\n",
           ("tests/test_verify.py::test_each_property_passes_small_run[set_pm_one]",
            "tests/test_verify.py::test_each_property_passes_small_run[skein]",
            "tests/test_verify.py::test_set_pm_one_weighs_the_sign_at_minus_one")),
    Mutant("hatted families spoiled by a stray term", "src/tanglenabla/nabla.py",
           "return {s: sums.get(s, {}) for s in d.sites()}",
           "return {s: {**sums.get(s, {}), 1 << 200: 1} for s in d.sites()}",
           ("tests/test_verify.py::test_each_property_passes_small_run[glueing]",
            "tests/test_verify.py::test_one_pass_glueing_sum_matches_the_site_scan")),
    Mutant("mirror without negation", "src/tanglenabla/verify.py",
           "    return {-e: c for e, c in terms.items()}\n",
           "    return {e: c for e, c in terms.items()}\n",
           ("tests/test_verify.py::test_each_property_passes_small_run[mirror]",
            "tests/test_acceptance.py::test_criterion_8_identity_suite")),
    Mutant("reversal with the wrong sign", "src/tanglenabla/verify.py",
           "return {e - sum([read(e) * w for read, w in flips]) + shift: c",
           "return {e + sum([read(e) * w for read, w in flips]) + shift: c",
           ("tests/test_verify.py::test_each_property_passes_small_run[reversal]",
            "tests/test_acceptance.py::test_criterion_8_identity_suite")),
    Mutant("reversal without lk2", "src/tanglenabla/verify.py",
           "{s: _reversed(t, [flips[colour]], lk2)",
           "{s: _reversed(t, [flips[colour]])",
           ("tests/test_verify.py::test_each_property_passes_small_run[reversal]",
            "tests/test_acceptance.py::test_criterion_8_identity_suite")),
    Mutant("skein with p+ + p-", "src/tanglenabla/verify.py",
           "        out[e] = out.get(e, 0) - c\n",
           "        out[e] = out.get(e, 0) + c\n",
           ("tests/test_verify.py::test_each_property_passes_small_run[skein]",)),
    Mutant("glueing with the two glued colours swapped", "src/tanglenabla/verify.py",
           "    f2 = packed_family(d2, {c: lay[rec.iota_2.get(c, c)] for c in d2.colours()})\n",
           "    first = list(lay)[:2]\n"
           "    swap = dict(zip(first, first[::-1]))\n"
           "    f2 = packed_family(d2, {c: lay[swap.get(x := rec.iota_2.get(c, c), x)]\n"
           "                            for c in d2.colours()})\n",
           ("tests/test_verify.py::test_each_property_passes_small_run[glueing]",
            "tests/test_verify.py::test_one_pass_glueing_sum_matches_the_site_scan",
            "tests/test_acceptance.py::test_criterion_8_identity_suite")),
    Mutant("parity read mod 8", "src/tanglenabla/verify.py",
           "if len({read(e) % 4 for e in t}) > 1:",
           "if len({read(e) % 8 for e in t}) > 1:",
           ("tests/test_verify.py::test_each_property_passes_small_run[parity]",
            "tests/test_acceptance.py::test_criterion_8_identity_suite")),
    Mutant("the four-ended sites rotated by one", "src/tanglenabla/verify.py",
           "d.arcs[(i + rotation) % 4]",
           "d.arcs[(i + rotation + 1) % 4]",
           ("tests/test_verify.py::test_each_property_passes_small_run[fourended_symmetry]",
            "tests/test_acceptance.py::test_criterion_8_identity_suite")),
    Mutant("rm_invariance compared on the hatted families", "src/tanglenabla/verify.py",
           "if packed_family(d, lay, True) != packed_family(d2, lay, True):",
           "if packed_family(d, lay) != packed_family(d2, lay):",
           ("tests/test_verify.py::test_each_property_passes_small_run[rm_invariance]",)),
    Mutant("mutation compared on the hatted families", "src/tanglenabla/verify.py",
           "    before = packed_family(d, lay, True)\n"
           "    for axis in (\"x\", \"y\", \"z\"):\n"
           "        md = tr.mutate_tangle(d, axis)\n"
           "        after = packed_family(md, _layout(d, md), True)\n",
           "    before = packed_family(d, lay)\n"
           "    for axis in (\"x\", \"y\", \"z\"):\n"
           "        md = tr.mutate_tangle(d, axis)\n"
           "        after = packed_family(md, _layout(d, md))\n",
           ("tests/test_verify.py::test_each_property_passes_small_run[mutation]",
            "tests/test_acceptance.py::test_criterion_8_identity_suite")),
    Mutant("knot_pm_one with the colour's digit kept", "src/tanglenabla/verify.py",
           "if _at_unit(p, read, w, 1) != {0: 1} or _at_unit(p, read, w, -1) != {0: 1}:",
           "if _at_unit(p, read, 0, 1) != {0: 1} or _at_unit(p, read, 0, -1) != {0: 1}:",
           ("tests/test_verify.py::test_each_property_passes_small_run[knot_pm_one]",
            "tests/test_verify.py::test_packed_checks_report_as_the_polynomial_checks[knot_pm_one]",
            "tests/test_golden_cli.py::test_check_json_digests")),
    Mutant("at-h family shifted down a digit", "src/tanglenabla/nabla.py",
           "weight = [packed_weight(digit[c]) for c in d.colours()]",
           "weight = [packed_weight(digit[c] - at_h) for c in d.colours()]",
           ("tests/test_nabla.py::test_packed_terms_multiply_by_adding_their_ints",
            "tests/test_nabla.py::test_packed_family_at_h_matches_the_collapse_on_seeded_diagrams",
            "tests/test_verify.py::test_set_pm_one_weighs_the_sign_at_minus_one")),
    Mutant("_decoded without the h digit", "src/tanglenabla/verify.py",
           " + [(H, packed_digit(0))]",
           "",
           ("tests/test_verify.py::test_one_pass_glueing_sum_matches_the_site_scan",)),
    Mutant("division remainder at the wrong exponent", "src/tanglenabla/laurent.py",
           "rem_terms.update({rest[:i] + (e,) + rest[i:]: c",
           "rem_terms.update({rest[:i] + (e + 2,) + rest[i:]: c",
           ("tests/test_laurent.py::test_divide_binomial_reports_the_exact_remainder[one_group]",
            "tests/test_laurent.py::test_divide_binomial_reports_the_exact_remainder[two_groups]",
            "tests/test_laurent.py::test_divide_binomial_reports_the_exact_remainder[half_exponents]")),
    Mutant("diagram == without the regions", "src/tanglenabla/diagram.py",
           " and self.regions == other.regions\n",
           "\n",
           ("tests/test_diagram.py::test_closed_diagrams_with_another_outer_face_are_not_equal",)),
    Mutant("last table piece written with its comma", "src/tanglenabla/layout.py",
           'write(last[:-2] + "\\n  ]\\n}\\n" if as_json else last)',
           'write(last[:-1] + "\\n  ]\\n}\\n" if as_json else last)',
           ("tests/test_cli.py::test_gradings_json_writer_matches_json_dumps",
            "tests/test_cli.py::test_tables_are_written_as_they_are_made",
            "tests/test_layout.py::test_table_matches_json_dumps",
            "tests/test_layout.py::test_every_json_command_is_written_as_json_dumps_writes_it")),
    Mutant("a site's runs written in group order", "src/tanglenabla/layout.py",
           "        for alex, low, g in keys.runs(groups):\n            yield (",
           "        for alex, low, g in sorted(keys.runs(groups), key=lambda r: r[2]):\n"
           "            yield (",
           ("tests/test_cli.py::test_gradings_json_writer_matches_json_dumps",
            "tests/test_cli.py::test_tables_are_written_as_they_are_made")),
]


def _failed(output: str) -> set[str]:
    """The node ids that pytest's ``-rf`` summary lists as failed."""
    return {line.split()[1] for line in output.splitlines() if line.startswith("FAILED ")}


def run(mutant: Mutant) -> tuple[bool, str]:
    """(caught, detail): apply ``mutant`` to a temporary copy of the tree
    and run its tests; caught when every one of them fails."""
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False, f"anchor found {text.count(mutant.old)} times in {mutant.file}"
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        (tree / mutant.file).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutant.tests], cwd=tree, capture_output=True, text=True)
    survived = [t for t in mutant.tests if t not in _failed(proc.stdout)]
    if survived:
        return False, f"not failed: {', '.join(survived)}"
    return True, f"{len(mutant.tests)} of {len(mutant.tests)} tests fail"


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    missed = 0
    for mutant in chosen:
        caught, detail = run(mutant)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED'}  {mutant.name}: {detail}", flush=True)
    print(f"{len(chosen) - missed} of {len(chosen)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
