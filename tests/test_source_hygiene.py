"""The package's source, read with ``ast``: no module imports a name at
module level that it never uses, ``starbench.__all__`` is sorted, free
of duplicates, and names only what the package defines, every
function, method and class the package defines is referenced by name,
from the program itself unless it is one of a few named test seams, and
every claim or hypothesis the package can refuse with is named by a test,
unless it is one of a few named untested claims."""

import ast
from pathlib import Path

import pytest

import starbench

SOURCES = sorted(Path(starbench.__file__).parent.glob("*.py"))
# where a definition of the package may be referenced from
ROOT = Path(__file__).resolve().parent.parent
READERS = sorted(
    path
    for part in ("src", "tests", "scripts", "perfbench")
    for path in (ROOT / part).rglob("*.py")
)
# the readers that are the program: all but the tests
PROGRAM = [path for path in READERS if path.relative_to(ROOT).parts[0] != "tests"]
# definitions that only the tests reach, each kept for the reason given
TEST_SEAMS = {
    # StarRing.from_tables builds an audited ring from explicit tables: the
    # entry point of adapters and of the tests' hand-made rings
    "from_tables",
}
# the exceptions whose first argument names the claim or hypothesis refused
CLAIM_ERRORS = {"VerificationFailed", "HypothesisNotMet"}
# claims that no test names, each kept for the reason given
UNTESTED_CLAIMS = {
    # a check on the package's own corpus data, which has no duplicate
    "corpus-duplicate-descriptor",
}


def module_level_imports(tree):
    """(bound name, line) of every import in the module body, and in the
    bodies of its top-level if and try blocks; ``__future__`` excluded."""
    stack, out = list(tree.body), []
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def annotations(tree):
    """Every annotation node: of arguments, returns and annotated names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Every name the module reads: names and attribute roots in its code,
    names inside string annotations, and the strings of ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in annotations(tree):
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")  # "Quotient", "List[int]"
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [(name, line) for name, line in module_level_imports(tree) if name not in used]
    assert unused == []


def test_all_is_sorted_unique_and_resolves():
    names = starbench.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(starbench, n)] == []


def test_the_checks_catch_an_unused_import_and_a_string_use():
    tree = ast.parse(
        "from typing import Any, List\nimport numpy as np\nx: 'List[int]' = []\n"
    )
    used = used_names(tree)
    assert [n for n, _ in module_level_imports(tree) if n not in used] == ["Any", "np"]


def definitions(tree):
    """(name, line) of every function, method and class defined in the
    module, at any depth; dunders, and functions that one of the module's
    own functions decorates (it registers them, as ``_verdict`` does), are
    left out."""
    own = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        roots = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(r, ast.Name) and r.id in own for r in roots):
            continue
        out.append((node.name, node.lineno))
    return out


def referenced_names(tree):
    """Every name the module refers to: names, attribute names, and string
    constants that are identifiers (``__all__``, ``getattr``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def without_all(tree):
    """The module without its ``__all__`` assignment: a re-export names a
    definition without using it."""
    tree.body = [
        node
        for node in tree.body
        if not (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
    ]
    return tree


def unreferenced(sources, readers):
    """(source, name, line) of each definition in the ``sources`` trees
    that none of the ``readers`` trees refers to."""
    referenced = set().union(*map(referenced_names, readers))
    return [
        (source, name, line)
        for source, tree in sources.items()
        for name, line in definitions(tree)
        if name not in referenced
    ]


def parsed(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_definition_is_referenced():
    assert unreferenced(parsed(SOURCES), parsed(READERS).values()) == []


def test_every_definition_but_the_test_seams_is_reached_by_the_program():
    program = [without_all(tree) for tree in parsed(PROGRAM).values()]
    assert {name for _, name, _ in unreferenced(parsed(SOURCES), program)} == TEST_SEAMS


def test_the_reference_check_catches_a_dead_method_and_spares_a_registered_one():
    tree = ast.parse(
        "def reg(f):\n    return f\n"
        "@reg\ndef hook():\n    pass\n"
        "class Box:\n    def __init__(self):\n        self.get()\n"
        "    def get(self):\n        pass\n    def dead(self):\n        pass\n"
    )
    used = referenced_names(tree)
    assert [n for n, _ in definitions(tree) if n not in used] == ["Box", "dead"]


def test_a_definition_only_a_test_or_a_re_export_names_is_not_reached():
    sources = {"mod.py": ast.parse("def used():\n    pass\ndef seam():\n    pass\n")}
    package = ast.parse("from .mod import seam, used\n__all__ = ['seam', 'used']\nused()\n")
    test = ast.parse("from pkg import seam\nseam()\n")
    assert unreferenced(sources, [package, test]) == []
    assert unreferenced(sources, [without_all(package)]) == [("mod.py", "seam", 3)]


def raised_claims(tree):
    """(claim, line) of every string literal the module passes as the first
    argument of one of ``CLAIM_ERRORS``."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        first = node.args[0]
        if name in CLAIM_ERRORS and isinstance(first, ast.Constant):
            if isinstance(first.value, str):
                out.append((first.value, node.lineno))
    return out


def unnamed_claims(sources, test_texts):
    """(source, claim, line) of each raised claim that no test text holds."""
    return [
        (source, claim, line)
        for source, tree in sources.items()
        for claim, line in raised_claims(tree)
        if not any(claim in text for text in test_texts)
    ]


def test_every_raised_claim_but_the_untested_ones_is_named_by_a_test():
    here = Path(__file__).resolve()
    tests = [
        path.read_text()
        for path in READERS
        if path.relative_to(ROOT).parts[0] == "tests" and path != here
    ]
    assert {claim for _, claim, _ in unnamed_claims(parsed(SOURCES), tests)} == UNTESTED_CLAIMS


def test_the_claim_check_reads_first_arguments_of_the_claim_errors():
    sources = {
        "mod.py": ast.parse(
            "raise VerificationFailed('named', 1)\n"
            "e = errors.HypothesisNotMet('unnamed', {})\n"
            "raise ValueError('not a claim')\n"
            "raise VerificationFailed(label)\n"
        )
    }
    assert raised_claims(sources["mod.py"]) == [("named", 1), ("unnamed", 2)]
    assert unnamed_claims(sources, ["claim == 'named'"]) == [("mod.py", "unnamed", 2)]
