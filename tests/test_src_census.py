"""Every function, class and method in ``src/dice`` has a caller there, so
code that only tests call does not grow back; and every attribute src sets
on ``self``, and every field of the records in ``RECORDS``, is read there, so
a copy of a fact that another record holds does not grow back either.

A name counts as called if any src module loads it, as a name or as an
attribute, or ``dice/__init__.py`` re-exports it.  Dunder methods are
called by Python itself.  A stored attribute counts as read if any src
module loads its name as an attribute.  Both censuses match names, not
bindings, so they miss a dead method or attribute that shares its name with
a live one.  The line census, ``tests/line_census.py``, does not: it lists
each src line that an honest run of every CLI command and the rejection
tables never run.
"""

import ast
import inspect
from pathlib import Path

import dice
from dice.cli import main as cli_main
from dice.harness import SCENARIO_SCHEMA

from line_census import UNREACHED, src_lines

SRC = Path(dice.__file__).parent

# Defined in src but called only from outside it, each with why it stays.
CALLED_FROM_OUTSIDE = {
    "cli.simulate": "a click command, called by the `dice` entry point",
    "cli.ledger_verify": "a click command, called by the `dice` entry point",
    "cli.requirements": "a click command, called by the `dice` entry point",
    "cli.calibrate": "a click command, called by the `dice` entry point",
    "tokenbank.TokenBank.rebuild_from_ledger": "wrapped by the benchmark's tracer",
    "channel.PaymentChannel.status": "read by the benchmark's tracer to count open channels",
}

# The records whose fields the stored-state census checks, besides the
# attributes set on ``self``.
RECORDS = {"Wallet", "TokenLot", "PaymentChannel", "RoamerSession"}


def _modules():
    """(module name, parsed tree) of each src module."""
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree, module, kinds=(ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
    """(qualified name, name) of each function, class and method under
    ``tree`` whose node is one of ``kinds``."""
    stack = [(tree, module)]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if isinstance(child, kinds):
                    yield f"{owner}.{child.name}", child.name
                stack.append((child, f"{owner}.{child.name}"))
            else:
                stack.append((child, owner))


def census() -> set[str]:
    """The qualified names of the src definitions that no src module calls."""
    defined, loaded = {}, set()
    for module, tree in _modules():
        defined.update(_definitions(tree, module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and module == "__init__":
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


def test_each_line_the_line_census_lists_is_an_executable_src_line():
    """A listed line that src no longer holds fails here, untraced; that each
    is still unreached, and no other line is, ``python tests/line_census.py``
    checks."""
    assert sorted(set(UNREACHED) - set(src_lines().values())) == []
    assert all(UNREACHED.values())


def test_line_census_keys_each_line_by_its_innermost_function(tmp_path):
    (tmp_path / "m.py").write_text("def f(x):\n    return [y for y in x]\n\n\n"
                                   "def g(a):\n    if a:\n        return 1\n    return 1\n")
    assert sorted(src_lines(tmp_path).values()) == [
        ("m", "f", "def f(x):"), ("m", "f.<listcomp>", "return [y for y in x]"), ("m", "g", "def g(a):"),
        ("m", "g", "if a:"), ("m", "g", "return 1"), ("m", "g", "return 1 #2")]


def unread_state(modules) -> set[str]:
    """The qualified names of the attributes set on ``self``, and of the
    fields of ``RECORDS``, that no module of ``modules`` reads as an attribute."""
    stored, read = {}, set()
    for module, tree in modules:
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    stored[f"{module}.{cls.name}.{node.attr}"] = node.attr
            if cls.name in RECORDS:
                stored.update((f"{module}.{cls.name}.{node.target.id}", node.target.id) for node in cls.body
                              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))
    return {qual for qual, name in stored.items() if name not in read}


def test_every_stored_attribute_and_record_field_is_read_in_src():
    """State that src never reads is a copy kept in step for no reader.
    Names are matched, not bindings: so this missed ``DiceEngine.signer``, a
    copy of ``ledger.signer_backend`` that only tests read, because src reads
    ``ChannelManager.signer`` and ``Transaction.signer``, which share its name."""
    assert sorted(unread_state(_modules())) == []


def test_stored_state_census_sees_self_attributes_and_record_fields():
    tree = ast.parse("class Wallet:\n    owner: str\n    spare: int\n"
                     "    def f(self, other):\n        self.x = self.owner\n        other.y = 1\n")
    assert sorted(unread_state([("m", tree)])) == ["m.Wallet.spare", "m.Wallet.x"]


def _override_flags(command) -> dict:
    """The params of a click command that its callback takes as ``**knobs``,
    the ones it merges into a config, by name."""
    named = inspect.signature(command.callback).parameters
    return {p.name: p for p in command.params if p.name not in named}


def test_each_config_override_flag_names_a_scenario_knob():
    """A flag that overrides a config value is that knob, stated once in
    ``ScenarioConfig``, and an omitted one keeps the config's value."""
    flags = {name: _override_flags(cli_main.commands[name]) for name in ("simulate", "requirements")}
    assert {name: set(params) for name, params in flags.items()} == {
        "simulate": {"seed", "days", "mode"},
        "requirements": {"tps_capacity", "concentration_hours", "avg_mno_factor"},
    }
    for params in flags.values():
        assert set(params) <= set(SCENARIO_SCHEMA["properties"])
        assert all(p.default is None for p in params.values())
    assert list(flags["simulate"]["mode"].type.choices) == SCENARIO_SCHEMA["properties"]["mode"]["enum"]


def test_requirements_assumptions_are_gone():
    """The projection knobs are config knobs; no second record restates them."""
    assert "RequirementsAssumptions" not in dice.__all__
    assert not hasattr(dice.harness, "RequirementsAssumptions")


def nested_imports(modules) -> list[str]:
    """``module:line`` of each import below the module level of ``modules``."""
    return [f"{module}:{node.lineno}" for module, tree in modules for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]


def test_no_import_hides_inside_a_function():
    """An import in a function body hides an import cycle until the call; a
    module that needs another's names imports them at the top."""
    assert nested_imports(_modules()) == []


def test_nested_import_census_sees_function_and_block_imports():
    tree = ast.parse("import a\ndef f():\n    from .b import c\nif a:\n    import d\n")
    assert nested_imports([("m", tree)]) == ["m:3", "m:5"]
