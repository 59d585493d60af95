"""The README names only what the code has: every backticked dotted name,
such as `Circuit.eval` or `tfnpkit.encodings.BLOCKS`, resolves to a module,
an attribute or a class member."""

import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import tfnpkit

ROOT = Path(__file__).resolve().parent.parent
# a dotted name in backticks, optionally called: `a.b`, `a.b()`, `a.b(x, y)`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")
MODULES = {name: importlib.import_module(f"tfnpkit.{name}")
           for _, name, _ in pkgutil.iter_modules(tfnpkit.__path__) if not name.startswith("_")}
_MISSING = object()


def _roots(head: str) -> list:
    """What the first part of a dotted name can stand for: the package, one
    of its modules, a name some module defines or imports, or a builtin such
    as ``str``."""
    if head == "tfnpkit":
        return [tfnpkit]
    if head in MODULES:
        return [MODULES[head]]
    found = [vars(m)[head] for m in MODULES.values() if head in vars(m)]
    return found + ([getattr(builtins, head)] if hasattr(builtins, head) else [])


def _has(obj, part: str) -> bool:
    """Whether obj has the attribute, or is a class that declares it as an
    annotated field (a dataclass field without a default)."""
    return hasattr(obj, part) or any(
        part in vars(k).get("__annotations__", {}) for k in getattr(obj, "__mro__", ()))


def _resolves(name: str) -> bool:
    head, *path, last = name.split(".")
    for obj in _roots(head):
        for part in path:
            obj = getattr(obj, part, _MISSING)
        if obj is not _MISSING and _has(obj, last):
            return True
    return False


def test_every_dotted_name_in_the_readme_resolves():
    names = set(DOTTED.findall((ROOT / "README.md").read_text()))
    assert names, "no dotted names found: the pattern is stale"
    # a file of the repository, such as a BENCH_*.json report, is not a name
    stale = sorted(n for n in names if not (ROOT / n).exists() and not _resolves(n))
    assert stale == []


def test_a_stale_name_does_not_resolve():
    assert _resolves("Circuit.eval") and _resolves("str.splitlines")
    assert _resolves("tfnpkit.encodings.BLOCKS") and _resolves("ProblemSpec.clauses")
    assert not _resolves("Clause.reach") and not _resolves("tfnpkit.nosuch")
