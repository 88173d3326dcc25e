"""Every defaulted parameter of the package has a caller that sets it.

A default that no call in ``src/``, ``bench/`` or ``demos/`` overrides is a
constant in disguise: each such parameter doubles the configurations that
tests must cover while only one of them runs.  The check reads the sources
with ``ast`` and imports none of them.

Calls are matched by name: ``f(...)`` and ``x.f(...)`` both call every
function named ``f``, and a class name calls its ``__init__``.  A call sets
a parameter by keyword, by position (``self`` and ``cls`` not counted), or
through ``*args`` at or before its position or ``**kwargs``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tanglenabla"
CALLERS = (ROOT / "src", ROOT / "bench", ROOT / "demos")


def _trees(*dirs):
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(name, position or None) of each defaulted parameter of ``fn``;
    positions count from the first argument a caller writes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if method and positional and not _is_static(fn) else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, dflt in zip(args.kwonlyargs, args.kw_defaults)
            if dflt is not None]
    return out


def _is_static(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _functions():
    """(where, called name, defaulted parameters) of each module-level and
    class-level function of the package."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.name}:{node.name}", node.name, _defaulted(node, False)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = node.name if fn.name == "__init__" else fn.name
                        yield (f"{path.name}:{node.name}.{fn.name}", name,
                               _defaulted(fn, True))


def _calls():
    """Called name -> list of (positions set, keywords set, star, double star)."""
    out: dict[str, list] = {}
    for _, tree in _trees(*CALLERS):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            star = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), None)
            plain = len(node.args) if star is None else star
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            double = any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append((plain, keywords, star, double))
    return out


def _unset():
    calls = _calls()
    missing = []
    for where, name, params in _functions():
        for param, pos in params:
            if not any(param in kw or double
                       or (pos is not None and (pos < plain or star is not None))
                       for plain, kw, star, double in calls.get(name, [])):
                missing.append(f"{where}({param})")
    return missing


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    assert _unset() == []


def test_the_scan_sees_the_package_and_its_callers():
    # the check is not vacuous: it finds defaulted parameters, and calls
    # that set them by keyword, by position and through *args
    found = {where: params for where, _, params in _functions()}
    assert ("knot", 3) in found["verify.py:random_diagram"]
    assert ("first_over", 5) in found["transform.py:rm2_insert"]
    assert ("exp2", 1) in found["laurent.py:LaurentPoly.var"]
    assert ("outer_hint", 5) in found["diagram.py:TangleDiagram.__init__"]
    assert ("seeds", None) in found["transform.py:_rebuild"]
    calls = _calls()
    assert any("knot" in kw for _, kw, _, _ in calls["random_diagram"])
    assert any(star == 1 for _, _, star, _ in calls["rm2_insert"])
    assert any(plain == 2 for plain, _, _, _ in calls["var"])
