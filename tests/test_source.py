"""The package holds no orphaned code: every private module-level name is read somewhere in
``src/trimsum``, and every module uses each name it imports. No package or test module defines
one name twice, as the second definition silently replaces the first. The exact-int message is
written in one function, so every int argument is refused in one form, and only the four makers
of canonical digits build a ``DigitString`` that skips its checks.

A private helper that only the tests read is code the library does not run; these checks
parse the source with ``ast`` and import nothing.
"""

import ast
import pathlib
from collections import Counter

TESTS = pathlib.Path(__file__).parent
SOURCE = TESTS.parent / "src" / "trimsum"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}


def _defined(tree):
    """The names a module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _read(tree):
    """The names a module reads: loaded names, attributes, and the strings in ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            yield from (elt.value for elt in node.value.elts)


def test_every_private_module_level_name_is_read_in_the_package():
    read = {name for tree in MODULES.values() for name in _read(tree)}
    orphans = [
        (module, name)
        for module, tree in MODULES.items()
        for name in _defined(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert orphans == []


def test_every_imported_name_is_used_by_its_module():
    unused = []
    for module, tree in MODULES.items():
        read = set(_read(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused += [(module, name) for name in names if name not in read]
    assert unused == []


def test_no_module_level_def_or_class_name_is_bound_twice():
    """A repeated ``test_`` name would drop the first test without a warning."""
    repeated = []
    for path in [*sorted(SOURCE.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        tree = ast.parse(path.read_text(), str(path))
        defs = (n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        repeated += [(path.name, name) for name, count in Counter(defs).items() if count > 1]
    assert repeated == []


def _nodes(node, owner=""):
    """(owner, child) for each node under node, owner being the dotted name of the innermost class
    and def that hold it ("" at module level)."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _nodes(child, f"{owner}.{child.name}".lstrip(".") if named else owner)


def test_the_integer_message_is_written_once():
    """Every exact-int argument goes through ``digits._check_int``, so its message is written there
    alone, and the older "must be an int, got 7" wording, which named no type, is gone."""
    strings = [
        (module, owner, node.value)
        for module, tree in MODULES.items()
        for owner, node in _nodes(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert {(module, owner) for module, owner, text in strings if "must be an integer" in text} == {
        ("digits.py", "_check_int")
    }
    assert [(module, owner) for module, owner, text in strings if "must be an int," in text] == []


def test_only_the_makers_of_checked_digits_skip_the_digit_check():
    """``DigitString._unchecked`` builds a value without ``__post_init__``. Only the four makers whose
    digits are right by construction read it: parse after its translate check, from_int from
    ``_digits_of``, abs of a checked value, and random_digit_string on a random.Random's own draws."""
    readers = {
        (module, owner)
        for module, tree in MODULES.items()
        for owner, node in _nodes(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_unchecked"
    }
    assert readers == {
        ("digits.py", "parse"),
        ("digits.py", "DigitString.from_int"),
        ("digits.py", "DigitString.__abs__"),
        ("oracle.py", "random_digit_string"),
    }
