"""Ratchets on the library's surface: its knobs and its unused names are
pinned, so adding or removing either shows in the diff of this file.

A knob is a defaulted parameter of a public function, of a public method
(constructors included) of a public class, or a defaulted dataclass field,
in the modules below. Parameters and fields whose names start with an
underscore are private and not counted.

An unused name is a public function, method or property of ``src/sg`` that
nothing in ``src/sg`` references outside its own definition; an export from
``sg/__init__.py`` counts as a reference.
"""

import ast
from pathlib import Path

import sg

MODULES = ("game", "exact", "sampler", "qvi", "checks", "hard", "generate")
KNOBS = 42
# Each public name no library code reads, and why it stays.
UNUSED = {
    "checks.MarkovianPlan.make": "the public constructor of the plan markovian_evaluate takes",
    "cli._Parser.error": "argparse calls it on a usage error, which it turns into an exit-2 JSON error",
    "game.StochasticGame.actions": "the README documents it as the rows handed back in Action form",
    "generate.random_game": "tests and perfbench generate their games with it",
    "qvi.SolveResult.u_schedule": "the README documents it as a solve's halving schedule",
    "sampler.GenerativeModel.sample_transition": "the README documents it as the single draw",
}


def public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def defaulted_parameters(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [f"{fn.name}({name}=)" for name in named if not name.startswith("_")]


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)


def knobs(module: str) -> list[str]:
    tree = ast.parse((Path(sg.__file__).parent / f"{module}.py").read_text())
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and public(node.name):
            found += [f"{module}.{k}" for k in defaulted_parameters(node)]
        if isinstance(node, ast.ClassDef) and public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and public(item.name):
                    found += [f"{module}.{node.name}.{k}" for k in defaulted_parameters(item)]
                if (is_dataclass(node) and isinstance(item, ast.AnnAssign)
                        and item.value is not None and public(item.target.id)):
                    found.append(f"{module}.{node.name}.{item.target.id}")
    return found


def test_the_knob_count_is_pinned():
    found = [k for m in MODULES for k in knobs(m)]
    assert len(found) == KNOBS, "\n".join(found)


def unused_names() -> list[str]:
    """Public functions, methods and properties of ``src/sg`` that nothing in
    it references outside their own definition. A module-level name counts
    as referenced through a name or an attribute, a method or property only
    through an attribute, so a local variable of the same name is no use."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(sg.__file__).parent.glob("*.py"))}
    defined = []  # (qualified name, name, definition, is a method)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((f"{module}.{node.name}", node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name, item, True)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]

    def referenced(name: str, definition: ast.AST, method: bool) -> bool:
        own = {id(node) for node in ast.walk(definition)}
        return any(id(node) not in own and (
            (isinstance(node, ast.Attribute) and node.attr == name)
            or (not method and isinstance(node, ast.Name) and node.id == name))
            for node in nodes)

    return sorted(qualified for qualified, name, definition, method in defined
                  if not (not method and name in exported)
                  and not referenced(name, definition, method))


def test_the_unused_names_are_pinned():
    assert unused_names() == sorted(UNUSED)
