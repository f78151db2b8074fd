"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import foundry

PACKAGE = Path(foundry.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def parsedModules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_the_package():
    """Invariant checks raise explicitly, so they survive python -O."""
    found = []
    for path, tree in parsedModules():
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    """foundry has no runtime dependencies: every absolute import names a
    standard library module."""
    found = []
    for path, tree in parsedModules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_every_imported_name_is_used():
    """A module uses every name it imports, so deleting the last use of a
    name also deletes its import.  A use is a Name node; `__future__`
    imports are directives, not names."""
    found = []
    for path, tree in parsedModules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []


def test_cli_import_loads_nothing_outside_the_standard_library():
    """Checked in a fresh interpreter, against the modules it had loaded
    before importing foundry.cli."""
    script = ("import json, sys; before = set(sys.modules); import foundry.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = {name.split(".")[0] for name in json.loads(out)}
    assert "foundry" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"foundry"}) == []


def privateSlots(tree):
    """The underscore names that the module's classes declare in __slots__."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.Assign) and len(item.targets) == 1
            and getattr(item.targets[0], "id", None) == "__slots__"
            for name in ast.literal_eval(item.value) if name.startswith("_")}


def test_no_module_touches_another_modules_private_slots():
    """A module reads or writes no underscore attribute that a class of
    another module declares in __slots__ (and none of its own classes
    does): what a module keeps private, it alone reads and writes."""
    modules = list(parsedModules())
    slots = {path: privateSlots(tree) for path, tree in modules}
    found = []
    for path, tree in modules:
        foreign = set().union(*(names for other, names in slots.items() if other != path))
        found += ["%s:%d %s" % (path.name, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in foreign - slots[path]]
    assert found == []


def tracedNames():
    """{table: [(owner, attribute), ...]} for the SPANNED and COUNTED tables
    of bench/tracing.py, read from its source without importing it."""
    tables = {}
    for node in ast.parse(TRACING.read_text(), filename=str(TRACING)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                tables[name] = [(ast.unparse(owner), ast.literal_eval(attr))
                                for _, owner, attr in (entry.elts for entry in node.value.elts)]
    return tables


def resolve(dotted):
    """The object a dotted name such as foundry.matroid.Matroid refers to,
    importing the modules along the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:k]))
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve_in_the_package():
    """Every function the per-layer benchmark trace wraps still exists, so
    renaming or deleting one fails here instead of in a traced run."""
    tables = tracedNames()
    assert sorted(tables) == ["COUNTED", "SPANNED"] and all(tables.values())
    missing = []
    for owner, attr in tables["SPANNED"] + tables["COUNTED"]:
        try:
            found = hasattr(resolve(owner), attr)
        except (ImportError, AttributeError):
            found = False
        if not found:
            missing.append("%s.%s" % (owner, attr))
    assert missing == []


def tracedCounters():
    """(SEARCH_COUNTERS, the keys it reads off a sublattice's counts) of
    bench/tracing.py, read from its source without importing it: the
    SearchStats attributes and the SublatticeData.counts keys a traced run
    reports."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    searchCounters = [ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign) and len(node.targets) == 1
                      and getattr(node.targets[0], "id", None) == "SEARCH_COUNTERS"]
    countKeys = [ast.literal_eval(node.slice) for node in ast.walk(tree)
                 if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                 and node.value.attr == "counts" and isinstance(node.slice, ast.Constant)]
    assert len(searchCounters) == 1
    return searchCounters[0], countKeys


def test_traced_counter_names_resolve_in_the_package():
    """Every counter the per-layer benchmark trace reads still exists, so
    renaming a SearchStats attribute or a sublattice count fails here
    instead of in a traced run."""
    from foundry.foundation import computeFoundation
    from foundry.matroid import namedMatroid
    from foundry.morphism import SearchStats, fullRankSublattice

    searchCounters, countKeys = tracedCounters()
    assert searchCounters and countKeys
    assert [name for name in searchCounters if not hasattr(SearchStats(), name)] == []
    sub = fullRankSublattice(computeFoundation(namedMatroid("fano")).foundation)
    assert [key for key in countKeys if key not in sub.counts] == []


# Functions and methods that nothing in the package calls, each kept for a reason.
UNREFERENCED = {
    "isIsomorphism": "oracle: the tests check findIso results with it",
    "gpFromMorphism": "oracle: the tests check representations against it; bench/tracing.py wraps it",
    "validateGP": "oracle: the tests check Grassmann-Plucker functions with it",
    "GroupPresentation.allElements": "oracle: brute-force morphism enumeration in the tests",
    "FiniteField.units": "oracle: the tests check each field's generator with it",
    "solveModular": "bench/tracing.py wraps it",
    "smithNormalForm": "bench/tracing.py wraps it",
    "Matroid.rankOf": "bench/tracing.py wraps it; the tests' rank oracles call it",
    "Pasture.partnersOf": "bench/tracing.py wraps it",
    "Matroid.dual": "public API the benchmark calls",
    "matroidToJson": "public API the benchmark calls",
    "_Parser.error": "argparse calls it on a usage error",
}


def definitions(tree):
    """(owner prefix, def node) of the module's functions and its classes'
    methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield "", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name + ".", item


def referencedNames(tree, attributesOnly):
    """Every attribute the tree reads, and every name unless attributesOnly,
    with repeats."""
    kinds = ast.Attribute if attributesOnly else (ast.Name, ast.Attribute)
    return [node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree) if isinstance(node, kinds)]


def test_every_function_is_referenced_in_the_package():
    """Every top-level function and method (dunders aside) is referenced
    somewhere in the package outside its own body, or is listed in
    UNREFERENCED with its reason; a listed name that gains a use leaves the
    list.  A function is referenced by a name or an attribute, a method only
    by an attribute, so that a local variable of the same name is no use."""
    modules = [tree for _, tree in parsedModules()]
    totals = {attributesOnly: Counter(name for tree in modules
                                      for name in referencedNames(tree, attributesOnly))
              for attributesOnly in (False, True)}
    unreferenced = []
    for tree in modules:
        for owner, node in definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            attributesOnly = bool(owner)
            uses = totals[attributesOnly][node.name]
            if uses == referencedNames(node, attributesOnly).count(node.name):
                unreferenced.append(owner + node.name)
    assert sorted(unreferenced) == sorted(UNREFERENCED)


# The names bench/tracing.py times on the foundation path, each a per-layer
# metric that reads 0 once computeFoundation stops calling it.
FOUNDATION_LAYERS = (("foundry.foundation", "tutteRelations"),
                     ("foundry.matroid.Matroid", "flatsOfCorank"),
                     ("foundry.zlattice", "cokernelPresentation"))


def countCalls(monkeypatch, layers):
    """Calls per attribute name of the layers, each wrapped as
    bench/tracing.py wraps it: on its class, or in every foundry module
    that bound it."""
    assert set(layers) <= set(tracedNames()["SPANNED"])
    calls = Counter()
    for owner, attr in layers:
        original = getattr(resolve(owner), attr)

        def counted(*args, _key=attr, _fn=original, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        namespaces = [resolve(owner)] if isinstance(resolve(owner), type) else [
            module for name, module in sorted(sys.modules.items())
            if name == "foundry" or name.startswith("foundry.")]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, key, counted)
    return calls


def test_compute_foundation_calls_the_traced_foundation_layers(monkeypatch):
    from foundry.foundation import computeFoundation
    from foundry.matroid import namedMatroid

    calls = countCalls(monkeypatch, FOUNDATION_LAYERS)
    computeFoundation(namedMatroid("pappus"))
    assert sorted(calls) == sorted(attr for _, attr in FOUNDATION_LAYERS)


# The names bench/tracing.py times on a search's path, each a per-layer
# metric that reads 0 once a field query or an orientability query stops
# calling it.
SEARCH_LAYERS = (("foundry.pasture", "gfPasture"), ("foundry.morphism", "torsionHoms"),
                 ("foundry.morphism", "searchMorphisms"), ("foundry.morphism", "assemble"))


def test_field_and_sign_queries_call_the_traced_search_layers(monkeypatch):
    """A representationsOverField call passes through every search layer,
    an isOrientable call through all but gfPasture, each wrapped as in
    test_compute_foundation_calls_the_traced_foundation_layers, so a search
    that reads its torsion homs or its field from a table still calls them."""
    from foundry.foundation import computeFoundation
    from foundry.matroid import namedMatroid
    from foundry.representation import isOrientable, representationsOverField

    m = namedMatroid("nonfano")
    fr = computeFoundation(m)
    representationsOverField(m, 3, foundationResult=fr)
    calls = countCalls(monkeypatch, SEARCH_LAYERS)
    assert representationsOverField(m, 3, foundationResult=fr)
    assert sorted(calls) == sorted(attr for _, attr in SEARCH_LAYERS)
    calls.clear()
    assert isOrientable(m, foundationResult=fr)
    assert sorted(calls) == sorted(attr for _, attr in SEARCH_LAYERS if attr != "gfPasture")
