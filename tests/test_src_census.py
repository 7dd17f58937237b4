"""Every function, class and method in ``src/dice`` has a caller there, so
code that only tests call does not grow back.

A name counts as called if any src module loads it, as a name or as an
attribute, or ``dice/__init__.py`` re-exports it.  Dunder methods are
called by Python itself.  The census matches names, not bindings, so it
misses a dead method that shares its name with a live one.
"""

import ast
from pathlib import Path

import dice

SRC = Path(dice.__file__).parent

# Defined in src but called only from outside it, each with why it stays.
CALLED_FROM_OUTSIDE = {
    "cli.simulate": "a click command, called by the `dice` entry point",
    "cli.ledger_verify": "a click command, called by the `dice` entry point",
    "cli.requirements": "a click command, called by the `dice` entry point",
    "cli.calibrate": "a click command, called by the `dice` entry point",
    "ledger.Ledger.get_tx": "wrapped by the benchmark's tracer",
    "tokenbank.TokenBank.rebuild_from_ledger": "wrapped by the benchmark's tracer",
    "ledger.Ledger.query": "the paper's per-operator read scopes, answered alike by a replayed ledger",
    "ledger.payload_canonical": "the reference encoder tests check tx_digest against",
    "channel.PaymentChannel.status": "read by the benchmark's tracer to count open channels",
}


def _definitions(tree, module):
    """(qualified name, name) of each function, class and method under ``tree``."""
    stack = [(tree, module)]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{owner}.{child.name}", child.name
                stack.append((child, f"{owner}.{child.name}"))
            else:
                stack.append((child, owner))


def census() -> set[str]:
    """The qualified names of the src definitions that no src module calls."""
    defined, loaded = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(_definitions(tree, path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                loaded.update(alias.asname or alias.name for alias in node.names)
    return {qual for qual, name in defined.items()
            if name not in loaded and not (name.startswith("__") and name.endswith("__"))}


def test_every_src_definition_has_a_caller_in_src():
    """A new uncalled name fails, and so does an allowance whose name src now calls."""
    assert sorted(census()) == sorted(CALLED_FROM_OUTSIDE)


def test_census_sees_methods_nested_functions_and_re_exports():
    tree = ast.parse("class A:\n    def f(self):\n        def g():\n            pass\n")
    assert sorted(_definitions(tree, "m")) == [("m.A", "A"), ("m.A.f", "f"), ("m.A.f.g", "g")]
    assert "protocol.DiceEngine" not in census()   # re-exported, and called by harness
    assert "harness.verify_ledger" not in census()  # re-exported only
