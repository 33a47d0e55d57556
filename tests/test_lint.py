"""Static checks on the package source: no assert statements, the layering
of the intra-package imports, one prime-power helper, one field-selected
fork in polyring, no private function that only tests call, no
classification in decomposition enumeration, and one candidate path for
the right components."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "wildcomp"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# each module may import from at most these package modules
LAYERS = {
    "gf": set(),
    "polyring": {"gf"},
    "decomp_core": {"gf", "polyring"},
    "constructions": {"gf", "polyring", "decomp_core"},
    "counting": {"gf"},
}


def tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), f"{module}.py")


def package_imports(module: str) -> set:
    """The package modules that ``module`` imports, by relative import."""
    out = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    # behaviour must not change under python -O
    lines = [node.lineno for node in ast.walk(tree(module))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert in {module}.py at lines {lines}"


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layered_imports(module):
    assert package_imports(module) <= LAYERS[module]


def test_counting_is_imported_only_from_the_top():
    importers = {m for m in MODULES if "counting" in package_imports(m)}
    assert importers <= {"census", "cli", "__init__"}


def test_one_prime_power_helper():
    defs = [path.relative_to(SRC) for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "_log_base"]
    assert defs == [Path("wildcomp/gf.py")]


def test_one_field_selected_fork_in_polyring():
    # division, derivatives and scalar multiples share one kernel for every
    # field; only the product takes the packed path over a prime field
    forks = [fn.name for fn in ast.walk(tree("polyring"))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Compare)
             for side in [node.left, *node.comparators]
             if isinstance(side, ast.Attribute) and side.attr == "d"
             and isinstance(side.value, ast.Name) and side.value.id == "spec"]
    assert forks == ["_mul_raw"]
    prime_kernels = [(module, node.name) for module in MODULES
                     for node in ast.walk(tree(module))
                     if isinstance(node, ast.FunctionDef)
                     and node.name in {"_divrem_prime", "_divrem_zech"}]
    assert prime_kernels == []


def test_private_functions_are_used_in_src():
    # a private helper that no package code calls is dead code kept alive
    # only by its tests
    trees = [ast.parse(path.read_text()) for path in SRC.rglob("*.py")]
    private = {node.name for t in trees for node in t.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.endswith("__")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for t in trees for node in ast.walk(t)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(private - used) == []


def test_enumeration_never_classifies():
    # decompositions come from the roots of P_f alone: neither enumeration
    # nor an identify helper it calls names a classification or construction
    forbidden = {"classify", "identify_simply", "identify_multiply",
                 "decompositions_S", "frobenius_collision"}
    defs = {node.name: node for node in tree("identify").body
            if isinstance(node, ast.FunctionDef)}
    todo, seen, named = ["enumerate_decompositions",
                         "brute_force_decompositions"], set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, (ast.Name, ast.Attribute)):
                ref = node.id if isinstance(node, ast.Name) else node.attr
                named.add(ref)
                if ref in defs:
                    todo.append(ref)
    assert "_components_below_top" in seen
    assert sorted(named & forbidden) == []


def test_one_candidate_path():
    # M identification and decomposition enumeration read their h off the
    # roots of P_f in one generator; nothing else builds h from a root
    defs = [path.relative_to(SRC) for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
            and node.name == "right_component"]
    assert defs == []
    callers = sorted({fn.name for fn in tree("identify").body
                      if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "right_component_at"})
    assert callers == ["_candidates", "_components_below_top"]
