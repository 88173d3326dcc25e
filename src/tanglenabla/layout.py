"""The JSON text of the command line's outputs, and the writer of its
two tables.

Every JSON payload is written here byte for byte as ``json.dumps(value,
indent=2, sort_keys=True)`` writes it: two spaces per level of nesting,
``",\\n"`` between items and ``": "`` after a key, ``[]`` and ``{}`` for an
empty list and dict, keys in sorted order and strings with ASCII escapes
(each string goes through ``json.dumps``, so the escaping is json's own).
Under ``indent`` the generic encoder runs in pure Python and cost more than
the polynomials took to compute; these writers fill fixed templates:

* ``block`` lays out encoded items as a list or dict at any depth;
* ``poly`` writes a ``LaurentPoly`` as the ``terms``/``vars`` object of
  ``LaurentPoly.to_json``, straight from its terms;
* ``dump`` writes a payload of dicts, lists, strings, ints, bools, None and
  polynomials;
* ``write_table`` writes the tables of ``states`` and ``gradings`` to
  stdout piece by piece as they are made, as JSON or as text lines;
  ``json_runs`` makes the JSON pieces of ``gradings``, a run's head and
  then its generators, and ``tails`` the end of each state or generator;
* ``markers`` writes a state's markers from tables of four-marker pieces,
  for ``tails`` and the text of ``states``.

A value at depth k sits inside k containers: its closing bracket is
indented 2k spaces and its items 2k + 2.
"""

from __future__ import annotations

import functools
import json
import sys
from itertools import product

from .diagram import Site
from .laurent import LaurentPoly


def block(items: list[str], brackets: str, depth: int) -> str:
    """Encoded list items or dict entries laid out as the list or dict of
    ``brackets`` ("[]" or "{}") at ``depth``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


@functools.cache
def _term(depth: int, k: int) -> str:
    """The template of a term with k exponents of a polynomial at
    ``depth``, to be filled with ``(coef, *exponents)``."""
    return block(['"coef": "%d"', '"exp2": ' + block(["%d"] * k, "[]", depth + 3)],
                 "{}", depth + 2)


@functools.lru_cache(maxsize=1024)
def _names(names: tuple[str, ...], depth: int) -> str:
    """The ``vars`` list of a polynomial, the list at ``depth``."""
    return block(list(map(json.dumps, names)), "[]", depth)


def poly(p: LaurentPoly, depth: int = 0) -> str:
    """``p.to_json()`` at ``depth``, written from ``p.terms`` and ``p.vars``:
    the terms in exponent order, each coefficient a string."""
    term = _term(depth, len(p.vars))
    return block(['"terms": ' + block([term % (c, *e) for e, c in sorted(p.terms.items())],
                                      "[]", depth + 1),
                  '"vars": ' + _names(p.vars, depth + 1)], "{}", depth)


def dump(value, depth: int = 0) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it at ``depth``, a ``LaurentPoly`` as its ``to_json()``.  Dict keys are
    strings; a tuple is a list."""
    if isinstance(value, LaurentPoly):
        return poly(value, depth)
    if isinstance(value, dict):
        return block([f"{json.dumps(k)}: {dump(value[k], depth + 1)}" for k in sorted(value)],
                     "{}", depth)
    if isinstance(value, (list, tuple)):
        return block([dump(v, depth + 1) for v in value], "[]", depth)
    return json.dumps(value)


def write_table(name: str, key: str, pieces, as_json: bool) -> None:
    """Write a table to stdout piece by piece, as ``pieces`` yields them.

    As JSON it is ``{"diagram": name, key: [...]}`` with a final newline,
    the list items being the text of ``pieces`` (each item at depth 2 and
    followed by a comma and a newline, as ``tails`` ends them; ``key`` sorts
    after "diagram"); as text it is the pieces, or one empty line if there
    are none.  Only the last piece is held back, to drop its comma."""
    write = sys.stdout.write
    pieces = iter(pieces)
    last = next(pieces, None)
    if last is None:
        write(dump({"diagram": name, key: []}) + "\n" if as_json else "\n")
        return
    if as_json:
        write('{\n  "diagram": %s,\n  "%s": [\n' % (json.dumps(name), key))
    for piece in pieces:
        write(last)
        last = piece
    write(last[:-2] + "\n  ]\n}\n" if as_json else last)


def site_json(s: Site) -> str:
    """The arcs of ``s`` as the ``site`` list of a state or generator."""
    return block(list(map(json.dumps, sorted(s.arcs))), "[]", 3)


def markers(m: int, piece, sep: str):
    """``at(pre, post)``: the function from the base-4 marker code of an
    m-crossing state to ``pre``, its markers joined by ``sep``, and
    ``post``, crossing i's marker q written as ``piece(i, q)``.

    The code is read a byte (four markers) at a time, most significant
    first, from a table of 256 joined pieces per position; the leading
    1 to 4 markers have their own table, of 4 to 256 pieces.  Positions
    whose pieces agree share a table."""
    if not m:
        return lambda pre="", post="": lambda x: pre + post

    @functools.cache
    def table(labels: tuple[tuple[str, ...], ...]) -> list[str]:
        return list(map(sep.join, product(*labels)))

    labels = [tuple([piece(i, q) for q in range(4)]) for i in range(m)]
    n = (m + 3) // 4                             # bytes of a code
    tables = [table(tuple(labels[max(0, m - 4 * b - 4):m - 4 * b])) for b in range(n - 1, -1, -1)]
    get = list.__getitem__

    def at(pre: str = "", post: str = ""):
        return lambda x: pre + sep.join(map(get, tables, x.to_bytes(n, "big"))) + post
    return at


def tails(m: int):
    """``tails(site)``: the function from the base-4 marker code of an
    m-crossing state at the site whose JSON text is ``site`` to its tail,
    the markers and the site closed with a comma, as ``dump`` lays out the
    end of a generator or a state.  A generator is a head fixed by its key
    >> 2m (``json_runs``) and a tail; a state is "    {" and a tail."""
    at = markers(m, lambda i, q: str(q), ",\n        ")
    pre, post = ('      "markers": [\n        ', "\n      ],\n") if m else \
        ('      "markers": [', "],\n")
    end = '      "site": %s\n    },\n'
    return lambda site: at(pre, post + end % site)


def json_runs(keys):
    """``runs(s, groups)``: the JSON text of site s's generators, each with a
    comma after it, byte for byte as ``dump`` lays them out in the gradings
    payload, one piece per run (see ``KeyLayout.runs``) for ``write_table``:
    ``head.join`` of ``""`` and its group's tails.  A head is the text of its
    Alexander digits, filled into a template with one slot per colour (a
    colour name is a token, so it holds no "%"), and the text of its bits
    below them, delta, h and the decoration; each is made once per table,
    and each state's tail once per site (``tails``)."""
    template = "    {\n      \"alexander2\": " + block(
        [json.dumps(c) + ": %d" for c in keys.colours], "{}", 3) + ",\n"
    bits = [block(list(map(str, b)), "[]", 3) for b in keys.bits]
    tail_at = tails(keys.m)

    @functools.cache
    def alexander(alex: int) -> str:
        return template % keys.alexander(alex)

    @functools.cache
    def grading(low: int) -> str:
        delta2, h, k = keys.grading(low)
        return '      "delta2": %d,\n      "h": %d,\n      "ladybug_bits": %s,\n' % (
            delta2, h, bits[k])

    def runs(s, groups):
        tail = tail_at(site_json(s))
        # "" first, so that the join starts with the head
        group_tails = [["", *map(tail, codes)] for codes in groups.values()]
        for alex, low, g in keys.runs(groups):
            yield (alexander(alex) + grading(low)).join(group_tails[g])
    return runs
