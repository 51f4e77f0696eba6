"""Every public module-level function and class of the package has a caller in src/."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "entroport"

#: public names whose only callers are outside src/: "module.name" -> the caller
OUTSIDE_CALLERS = {
    "config.load_config": "bench/child.py",
    "cli.main": "the entroport console script (pyproject.toml)",
}


def _names(node) -> set[str]:
    """Every name node refers to, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _public_definitions_and_references():
    """{"module.name": name} of every public top-level def, and (owner, names) per
    top-level statement: the names it references, owner its "module.name" if it is
    a public def, else None. __init__.py only re-exports, so it references nothing."""
    definitions, references = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                own = f"{path.stem}.{stmt.name}"
                definitions[own] = stmt.name
            if path.name != "__init__.py":
                references.append((own, _names(stmt)))
    return definitions, references


def test_every_public_name_is_referenced_in_src():
    definitions, references = _public_definitions_and_references()
    unused = sorted(key for key, name in definitions.items()
                    if key not in OUTSIDE_CALLERS
                    and not any(name in names for own, names in references if own != key))
    assert unused == [], "public, but referenced nowhere in src/: " + ", ".join(unused)


def test_every_outside_caller_entry_names_a_definition():
    definitions, _ = _public_definitions_and_references()
    assert sorted(set(OUTSIDE_CALLERS) - set(definitions)) == []
