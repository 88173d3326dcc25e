"""Exact multivariate Laurent polynomials with half-integer exponents.

Exponents are stored *doubled* as plain integers, so half-integer powers
(which arise from the per-crossing codes) need no rational arithmetic.
Coefficients are arbitrary-precision integers.  Values are immutable;
every operation returns a fresh polynomial in canonical form.

Canonical form: ``vars`` is a tuple of distinct names, colours in
first-appearance order and the grading variable h last (``_order_vars``),
and ``terms`` holds no zero coefficient.  A variable may have no non-zero
exponent left.  The constructor puts any table in that form; an operation
whose table is already canonical (negation, ``eval_h`` and the ring
operations, the state-sum decoder of ``nabla``) builds through
``_canonical``, which checks nothing.  ``==`` compares the terms of two
polynomials over the same table directly, and aligns any other pair to the
union of their tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping


# The grading variable is pinned to the end of every variable table, so that
# serialized output is stable no matter how a polynomial was assembled.
H = "h"


class LaurentError(Exception):
    """Raised on misuse of the polynomial ring (unknown variable, bad division...)."""

    def __init__(self, code: str, message: str, payload=None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.payload = payload


def _order_vars(names: Iterable[str]) -> tuple[str, ...]:
    """Colour variables in first-appearance order, then the grading variable h."""
    seen = dict.fromkeys(names)
    return tuple(v for v in seen if v != H) + ((H,) if H in seen else ())


class LaurentPoly:
    """An element of Z[v1^{±1/2}, ..., vk^{±1/2}] in canonical form."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], int]):
        vs = tuple(variables)
        ordered = _order_vars(vs)
        if ordered != vs:
            perm = [vs.index(v) for v in ordered]
            terms = {tuple(e[i] for i in perm): c for e, c in terms.items()}
            vs = ordered
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c != 0})

    @classmethod
    def _canonical(cls, variables: tuple[str, ...],
                   terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """The polynomial of a table already in canonical form: ``variables``
        in ``_order_vars`` order and no zero coefficient in ``terms``, which
        the polynomial then owns.  Nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls((), {})

    @classmethod
    def integer(cls, n: int) -> "LaurentPoly":
        return cls((), {(): n}) if n else cls.zero()

    @classmethod
    def monomial(cls, coef: int, exp2: Mapping[str, int]) -> "LaurentPoly":
        """A single term; ``exp2`` maps variable -> doubled exponent."""
        vs = _order_vars(exp2.keys())
        key = tuple(exp2[v] for v in vs)
        return cls(vs, {key: coef})

    @classmethod
    def var(cls, name: str, exp2: int = 2) -> "LaurentPoly":
        return cls.monomial(1, {name: exp2})

    @classmethod
    def sum(cls, monomials: Iterable[tuple[int, Iterable[tuple[str, int]]]]) -> "LaurentPoly":
        """The sum of ``(coef, exp2 pairs)`` monomials, in one pass.

        The variable table is the one a left-to-right ``+`` fold of
        ``monomial`` gives: every pair registers its variable (zero
        exponents and zero coefficients included), colours in
        first-appearance order with the grading variable h last, and a
        variable stays when its terms cancel.  A variable repeated within
        one monomial has its exponents added.
        """
        pos: dict[str, int] = {}
        terms: dict[tuple[int, ...], int] = {}
        for coef, exp2 in monomials:
            key = [0] * len(pos)
            for v, e in exp2:
                i = pos.get(v)
                if i is None:
                    i = pos[v] = len(key)
                    key.append(0)
                key[i] += e
            # trailing zeros dropped, so a key does not depend on how many
            # variables were known when it was built
            while key and not key[-1]:
                key.pop()
            k = tuple(key)
            terms[k] = terms.get(k, 0) + coef
        n = len(pos)
        return cls(tuple(pos), {k + (0,) * (n - len(k)): c for k, c in terms.items()})

    # ------------------------------------------------------------------
    # alignment of variable tables

    def _aligned_to(self, vs: tuple[str, ...], names=None) -> dict[tuple[int, ...], int]:
        """The terms over the table ``vs``, reading position i of each
        exponent as variable ``names[i]`` (default ``self.vars``); a name
        given twice has its exponents added."""
        names = self.vars if names is None else names
        if vs == names:
            return dict(self.terms)
        pos = {v: i for i, v in enumerate(vs)}
        idx = [pos[v] for v in names]
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            key = [0] * len(vs)
            for i, x in zip(idx, e):
                key[i] += x
            k = tuple(key)
            out[k] = out.get(k, 0) + c
        return out

    def _union_vars(self, other: "LaurentPoly") -> tuple[str, ...]:
        if self.vars == other.vars:
            return self.vars
        return _order_vars(self.vars + other.vars)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        vs = self._union_vars(other)
        terms = self._aligned_to(vs)
        for e, c in other._aligned_to(vs).items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly._canonical(vs, {e: c for e, c in terms.items() if c})

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        vs = self._union_vars(other)
        a = self._aligned_to(vs)
        b = other._aligned_to(vs)
        terms: dict[tuple[int, ...], int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                terms[key] = terms.get(key, 0) + ca * cb
        return LaurentPoly._canonical(vs, {e: c for e, c in terms.items() if c})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        vs = self._union_vars(other)
        return self._aligned_to(vs) == other._aligned_to(vs)

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        """Hashable normal form: unused variables dropped, names sorted."""
        used = [i for i, v in enumerate(self.vars) if any(e[i] for e in self.terms)]
        names = tuple(sorted(self.vars[i] for i in used))
        order = [self.vars.index(n) for n in names]
        terms = sorted((tuple(e[i] for i in order), c) for e, c in self.terms.items())
        return (names, tuple(terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # specializations

    def eval_h(self) -> "LaurentPoly":
        """Eliminate the grading variable h at h = -1."""
        if H not in self.vars:
            return self
        i = self.vars.index(H)
        if any(e[i] % 2 for e in self.terms):
            raise LaurentError("E_HALF_H", "non-integral exponent of h")
        rest = self.vars[:i] + self.vars[i + 1:]
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            if (e[i] // 2) % 2:
                c = -c
            key = e[:i] + e[i + 1:]
            terms[key] = terms.get(key, 0) + c
        return LaurentPoly._canonical(rest, {e: c for e, c in terms.items() if c})

    # ------------------------------------------------------------------
    # structure queries

    def equal_up_to_unit(self, other: "LaurentPoly"):
        """Is ``other == ±monomial * self``?  Returns (bool, witness).

        The witness is ``(coef, exp2_dict)`` with coef in {+1, -1} such that
        other == coef * monomial * self, or None on failure.
        """
        if not self and not other:
            return True, (1, {})
        if not self or not other:
            return False, None
        if len(self.terms) != len(other.terms):
            return False, None
        vs = self._union_vars(other)
        a = sorted(self._aligned_to(vs).items())
        b = sorted(other._aligned_to(vs).items())
        ea, ca = a[0]
        eb, cb = b[0]
        if abs(ca) != abs(cb):
            return False, None
        shift = tuple(y - x for x, y in zip(ea, eb))
        sign = 1 if ca == cb else -1
        for (xa, cxa), (xb, cxb) in zip(a, b):
            if tuple(p + s for p, s in zip(xa, shift)) != xb or cxa * sign != cxb:
                return False, None
        witness = (sign, {v: s for v, s in zip(vs, shift) if s})
        return True, witness

    def divide_binomial(self, colour: str) -> "LaurentPoly":
        """Exact quotient by (colour - colour^{-1}); raises if not divisible.

        The division runs separately for each exponent pattern of the other
        variables: while the top doubled exponent e of the colour is at
        least the lowest one + 4, the top term c x^e is peeled off as
        c x^(e-2) (x - x^-1), which leaves c x^(e-4).  What is left is the
        remainder.
        """
        if colour not in self.vars:
            raise LaurentError("E_UNKNOWN_VAR", f"no variable {colour!r}")
        if not self:
            return LaurentPoly.zero()
        i = self.vars.index(colour)
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for e, c in self.terms.items():
            rest = e[:i] + e[i + 1:]
            groups.setdefault(rest, {})[e[i]] = c
        quot: dict[tuple[int, ...], int] = {}
        rem_terms: dict[tuple[int, ...], int] = {}
        for rest, poly in groups.items():
            low = min(poly)
            while (e := max(poly)) >= low + 4:
                c = poly.pop(e)
                quot[rest[:i] + (e - 2,) + rest[i:]] = c
                poly[e - 4] = poly.get(e - 4, 0) + c
            rem_terms.update({rest[:i] + (e,) + rest[i:]: c for e, c in poly.items() if c})
        if rem_terms:
            raise LaurentError(
                "E_NOT_DIVISIBLE",
                f"remainder after division by ({colour} - {colour}^-1)",
                payload=LaurentPoly(self.vars, rem_terms))
        return LaurentPoly(self.vars, quot)

    def rename(self, mapping: Mapping[str, str]) -> "LaurentPoly":
        """Rename variables; merging two names identifies the variables."""
        names = tuple(mapping.get(v, v) for v in self.vars)
        vs = _order_vars(names)
        return LaurentPoly(vs, self._aligned_to(vs, names))

    # ------------------------------------------------------------------
    # rendering

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e, c in sorted(self.terms.items()):
            factors = []
            for v, x in zip(self.vars, e):
                if x == 0:
                    continue
                if x % 2 == 0:
                    factors.append(v if x == 2 else f"{v}^{x // 2}")
                else:
                    factors.append(f"{v}^{x}/2")
            if not factors:
                body = str(abs(c))
            else:
                body = " ".join(factors)
                if abs(c) != 1:
                    body = f"{abs(c)} {body}"
            chunks.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"coef": str(c), "exp2": list(e)} for e, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        vs = tuple(data["vars"])
        return cls(vs, {tuple(t["exp2"]): int(t["coef"]) for t in data["terms"]})

    def __repr__(self):
        return f"LaurentPoly({self.pretty()})"


def binomial(colour: str) -> LaurentPoly:
    """The factor (colour - colour^{-1})."""
    return LaurentPoly.var(colour, 2) - LaurentPoly.var(colour, -2)
