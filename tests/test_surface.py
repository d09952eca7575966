"""Knob ratchet: the library's settable surface is pinned, so adding or
removing a knob shows in the diff of this file.

A knob is a defaulted parameter of a public function, of a public method
(constructors included) of a public class, or a defaulted dataclass field,
in the modules below. Parameters and fields whose names start with an
underscore are private and not counted.
"""

import ast
from pathlib import Path

import sg

MODULES = ("game", "exact", "sampler", "qvi", "checks", "hard", "generate")
KNOBS = 49


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
