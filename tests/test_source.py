"""Source scans over src/cqcount."""

import ast
import re
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


def _cli_functions():
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_cli_turns_a_library_value_error_into_an_input_error_in_one_place():
    # _blame gives every such message as "<where>: <reason>"; only
    # _load_coloring's names two files, the coloring and the target
    found = []
    for fn in _cli_functions():
        if fn.name in ("_blame", "_load_coloring"):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and _names(node.type) & {"ValueError", "ParseError"}
                    and any(isinstance(r, ast.Raise) and r.exc is not None
                            and "InputError" in _names(r.exc)
                            for r in ast.walk(node))):
                found.append("%s line %d" % (fn.name, node.lineno))
    assert found == []


def test_cli_runs_the_check_trials_in_one_loop():
    # each _check_* function is one trial; cmd_check alone counts them
    readers = sorted(fn.name for fn in _cli_functions()
                     if "trials" in _names(fn))
    assert readers == ["cmd_check"]


def test_every_budget_is_documented_in_the_readme():
    # each BudgetError names its cap (the fourth argument); a reader of the
    # README must find what that cap bounds and what happens past it
    readme = (SRC.parents[1] / "README.md").read_text()
    caps = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        caps += [node.args[3].value for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and "BudgetError" in _names(node.func)]
    assert caps
    assert [cap for cap in caps if cap not in readme] == []


def test_every_constant_the_readme_names_exists():
    # the reverse: an UPPER_SNAKE name in the README must still be a
    # module-level constant of the package, so a removed budget leaves no
    # description behind
    readme = (SRC.parents[1] / "README.md").read_text()
    named = set(re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", readme))
    constants = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants.update(target.id for stmt in tree.body
                         if isinstance(stmt, ast.Assign)
                         for target in stmt.targets
                         if isinstance(target, ast.Name))
    assert named
    assert sorted(named - constants) == []
