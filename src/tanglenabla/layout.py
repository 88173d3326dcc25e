"""The JSON text of the command line's outputs.

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
* ``table`` wraps the per-state chunks of ``states`` and ``gradings``, which
  ``tails`` and ``json_site`` write;
* ``markers`` writes a state's markers from tables of four-marker pieces,
  for ``tails`` and the text of ``states``.

A value at depth k sits inside k containers: its closing bracket is
indented 2k spaces and its items 2k + 2.
"""

from __future__ import annotations

import functools
import json
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


def table(name: str, key: str, chunks: list[str]) -> list[str]:
    """The pieces of ``{"diagram": name, key: [...]}`` with a final newline,
    the list items being the texts of ``chunks`` (each item at depth 2 and
    followed by a comma and a newline, as ``tails`` ends them); ``key``
    sorts after "diagram"."""
    if not chunks:
        return [dump({"diagram": name, key: []}) + "\n"]
    return ['{\n  "diagram": %s,\n  "%s": [\n' % (json.dumps(name), key),
            *chunks[:-1], chunks[-1][:-2], "\n  ]\n}\n"]   # no comma after the last


def site_json(s: Site) -> str:
    """The arcs of ``s`` as the ``site`` list of a state or generator."""
    return block(list(map(json.dumps, sorted(s.arcs))), "[]", 3)


# a generator's JSON text: a head fixed by its key >> 2m, then a tail
# (``tails``) fixed by its state; in ``states``, a state is "    {" and a tail
_HEAD = """    {
      "alexander2": %s,
      "delta2": %d,
      "h": %d,
      "ladybug_bits": %s,
"""


def markers(m: int, piece, sep: str):
    """``at(pre, post)``: the function from the base-4 marker code of an
    m-crossing state to ``pre``, its markers joined by ``sep``, and
    ``post``, crossing i's marker q written as ``piece(i, q)``.

    The code is read a byte (four markers) at a time from a table of 256
    joined pieces per position; the leading m % 4 markers, if any, have
    their own smaller table.  Positions whose pieces agree share a table."""
    if not m:
        return lambda pre="", post="": lambda x: pre + post

    @functools.cache
    def table(labels: tuple[tuple[str, ...], ...]) -> list[str]:
        return list(map(sep.join, product(*labels)))

    labels = [tuple([piece(i, q) for q in range(4)]) for i in range(m)]
    lead = 8 * ((m - 1) // 4)                    # the bits below the leading piece
    top = table(tuple(labels[:m - lead // 2]))
    rest = [(k, table(tuple(labels[m - 4 - k // 2:m - k // 2]))) for k in range(lead - 8, -1, -8)]

    def at(pre: str = "", post: str = ""):
        return lambda x: (pre + sep.join([top[x >> lead], *[t[x >> k & 255] for k, t in rest]])
                          + post)
    return at


def tails(m: int):
    """``tails(site)``: the function from the base-4 marker code of an
    m-crossing state at the site whose JSON text is ``site`` to its tail,
    the markers and the site closed with a comma, as ``dump`` lays out the
    end of a generator or a state."""
    at = markers(m, lambda i, q: str(q), ",\n        ")
    pre, post = ('      "markers": [\n        ', "\n      ],\n") if m else \
        ('      "markers": [', "],\n")
    end = '      "site": %s\n    },\n'
    return lambda site: at(pre, post + end % site)


def json_site(keys):
    """``chunk(s, groups)``: the JSON text of site s's generators, each with
    a comma after it, byte for byte as ``dump`` lays them out in the
    gradings payload.  ``groups`` maps a state's head without decoration to
    the marker codes of its states in lex order (see ``KeyLayout.runs``).
    Each run's head is rendered once and each state's tail once
    (``tails``), and a run is written as ``head + head.join(tails)``."""
    labels = [json.dumps(c) + ": " for c in keys.colours]
    bits = [block(list(map(str, b)), "[]", 3) for b in keys.bits]
    tail_at = tails(keys.m)
    alex: dict[int, str] = {}

    def chunk(s, groups):
        tail = tail_at(site_json(s))
        group_tails = [list(map(tail, codes)) for codes in groups.values()]
        out = []
        for packed, delta2, h, k, g in keys.runs(groups):
            a = alex.get(packed)
            if a is None:
                a2 = keys.alexander(packed)
                a = alex[packed] = block([f"{c}{e}" for c, e in zip(labels, a2)], "{}", 3)
            head = _HEAD % (a, delta2, h, bits[k])
            out.append(head)
            out.append(head.join(group_tails[g]))
        return "".join(out)
    return chunk
