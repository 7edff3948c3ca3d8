"""Source scans over src/cqcount."""

import ast
from pathlib import Path

import cqcount

SRC = Path(cqcount.__file__).resolve().parent


def _top_level_definitions_and_references():
    """Every top-level function and class of the package, as (module, name),
    and every name the package mentions outside the definition that binds
    it: plain names, attribute names and imported names.  A function that
    only calls itself is not referenced."""
    defined = []
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = stmt.name
                defined.append((path.stem, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined, referenced


def test_every_top_level_definition_is_used_in_src():
    # a function only the tests call belongs in tests/helpers.py; the CLI's
    # COMMANDS table names the command functions, so they count as used
    defined, referenced = _top_level_definitions_and_references()
    assert defined
    unused = ["%s.%s" % (module, name) for module, name in defined
              if name not in referenced]
    assert unused == []
