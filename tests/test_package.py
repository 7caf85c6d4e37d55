"""The package surface: every exported name has a user."""

import ast
from pathlib import Path

import intcat

PACKAGE = Path(intcat.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names(path):
    """Names read or looked up as attributes; definitions and imports alone
    do not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_export_is_referenced_by_a_module_or_a_test():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += list(TESTS.glob("test_*.py"))
    used = set().union(*(referenced_names(p) for p in files))
    assert sorted(exported_names() - used) == []


def test_every_from_import_is_read_where_it_is_imported():
    """A name a package module or a test module imports with ``from ...
    import`` is read in that module, so a stale import cannot hide a helper
    that lost its last user."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += list(TESTS.glob("test_*.py"))
    unread = []
    for path in sorted(files):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                   for alias in node.names if (alias.asname or alias.name) not in read]
    assert unread == []


def test_no_module_imports_a_private_name_from_another():
    """A single-underscore name stays inside its module; dunder names such
    as ``__version__`` are public."""
    def private(name):
        return name.startswith("_") and not (
            name.startswith("__") and name.endswith("__"))

    found = [f"{path.name}: {alias.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("intcat"))
             for alias in node.names if private(alias.name)]
    assert found == []


def test_only_certified_adjunction_checks_triangle_identities():
    """Every adjunction the engine builds is certified by one step,
    ``limits.certified_adjunction``; no engine checks its own triangles."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "id", getattr(node.func, "attr", None))
                            == "adjunction_check"]
    assert callers == [("limits.py", "certified_adjunction")]


def test_cone_objects_are_taken_apart_only_by_the_cone_category():
    """``ConesCategory`` owns the cone-object format: the theorem engines
    import none of the stage-family helpers that take a cone object apart,
    and ``connecting_iso`` reads a certified object through ``object_at``."""
    tree = ast.parse((PACKAGE / "theorems.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    helpers = {"fam_dict", "stage_family", "family_at_identity", "shift_family"}
    assert sorted(imported & helpers) == []
    tree = ast.parse((PACKAGE / "limits.py").read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "connecting_iso")
    reads = {(getattr(node.value, "attr", None), node.attr)
             for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    assert ("point", "components") not in reads
    assert any(attr == "object_at" for _, attr in reads)


def test_only_core_and_limits_read_thinness():
    """The functor category chooses between reading and searching through
    ``core.arrow_families`` and keeps no thin fork of its own: ``is_thin``
    is named only where it is defined and by the cone and comma builders."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if "is_thin" in referenced_names(path) | {
                alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}:
            readers.append(path.name)
    assert readers == ["core.py", "limits.py"]


def test_test_only_references_live_with_the_tests():
    """The 2-cell operations and the elementwise transformation search are
    references the tests check the engine against; no package module
    defines or exports them, and ``tests/oracles.py`` holds them."""
    import oracles
    moved = {"vertical_compose", "whisker_left", "whisker_right",
             "horizontal_compose", "enumerate_nats", "nat_squares_hold"}
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert sorted(moved & (defined | exported_names())) == []
    assert sorted(n for n in moved if not callable(getattr(oracles, n, None))) == []


def test_parts_are_built_on_first_read_by_cached_properties():
    """Lazy parts are ``functools.cached_property``: no module in the
    package defines ``__getattr__`` or assigns an object's ``__class__``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
                found.append(f"{path.name}: defines __getattr__")
            elif (isinstance(node, ast.Attribute) and node.attr == "__class__"
                  and isinstance(node.ctx, ast.Store)):
                found.append(f"{path.name}: assigns __class__")
    assert found == []
