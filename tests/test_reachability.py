"""src/seqforge holds only what runs: every top-level function and class is
reached from a command, from module-level code or from a name forgebench/
calls, or is README-documented API that no command runs yet.

Reachability is by name, read from the source with ast: the roots are cli's
cmd_* functions, run, main and build_parser, every module's module-level
code and every seqforge name forgebench/*.py names; a definition reached by
name reaches every name its body references. A test helper or oracle that
moves into src/ fails the test until it moves next to its readers.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "seqforge"

# Python API that no command runs; README names each (see "Python API").
DOCUMENTED_API = frozenset({
    "render_caption", "extract_tags", "joint_loss", "log_softmax", "cosine", "ablation_gap",
    "AblationCell", "sample_prompt", "build_only_yes_set", "downsample_frames",
})
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes) -> set[str]:
    """Every name the nodes reference: a variable, an attribute or an import."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                found.update(alias.name for alias in sub.names)
    return found


def _bench_names() -> set[str]:
    """The seqforge names forgebench/*.py uses: each name imported from a
    seqforge module, and each attribute of a seqforge module it imports."""
    found = set()
    for path in sorted((ROOT / "forgebench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("seqforge"):
                found.update(alias.name for alias in node.names)
                if node.module == "seqforge":
                    modules.update(alias.asname or alias.name for alias in node.names)
        found.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in modules)
    return found


def unreached() -> list[str]:
    """module.name of each top-level definition in src/seqforge that nothing
    reaches and DOCUMENTED_API does not list, sorted."""
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}  # name -> (module, node)
    roots = _bench_names() | DOCUMENTED_API
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        roots |= _names(node for node in body if not isinstance(node, _DEFINITION))
        for node in body:
            if isinstance(node, _DEFINITION):
                definitions.setdefault(node.name, []).append((path.stem, node))
                if path.stem == "cli" and (node.name.startswith("cmd_")
                                           or node.name in ("run", "main", "build_parser")):
                    roots.add(node.name)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in definitions.get(name, ()):
            todo += _names([node]) - reached
    return sorted(f"{module}.{name}" for name, defs in definitions.items()
                  for module, _ in defs if name not in reached)


def test_every_definition_in_src_is_reached():
    assert unreached() == []


def test_the_documented_api_is_named_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert {name for name in DOCUMENTED_API if not re.search(rf"`[\w.]*\b{name}\b", readme)} \
        == set()
