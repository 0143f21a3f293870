"""Name and default lints.

Imports: every name a module imports is used in that module, unless the
import statement has "# noqa: F401" on any of its lines.

Definitions: every module-level function, class and constant of
src/aerialsim/*.py is named, as a whole word, somewhere in the .py files
under src, tests or bench, apart from its own definition line.

Defaults: a model value has its one default in ScenarioConfig. The
builders below the config take it as a required argument or field, and no
module defines a DEFAULT_* constant.

Config shape: no field of ScenarioConfig or of its sections is Optional or
defaults to None, and each section field's default_factory is the
section's dataclass, which is how scenario._from_mapping finds it.

Settings: src/aerialsim reads no environment variable (no os.environ,
os.environb or os.getenv), so a setting comes only from the config and the
command line.

Config gate: outside cli.py, src/aerialsim raises ConfigurationError only
in a __post_init__ (the config and the values it is built from) and in the
few functions that build or load a config (CONFIG_CHECKERS), so a rule the
config applies is not checked again below it.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import typing
from collections import defaultdict
from pathlib import Path
from typing import Optional

from aerialsim.scenario import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aerialsim"
LINTED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import numpy as np\n"
              "from math import (pi,  # noqa: F401\n"
              "                  tau)\n"
              "from dataclasses import dataclass, replace\n"
              "np.zeros(1)\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = 0\n")
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (6, "replace")]


def test_every_import_is_used():
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text(encoding="utf-8"))
             for p in LINTED}
    assert {k: v for k, v in found.items() if v} == {}


def defined_names(source: str) -> list:
    """(line, name) of each module-level function, class and assigned name."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return found


def unused_definitions(defined: dict, sources: dict) -> list:
    """(module, line, name) of each defined name that no other line names.

    defined maps a module to its defined_names; sources maps every scanned
    file to its text.
    """
    seen = defaultdict(set)  # word -> {(file, line)}
    for f, text in sources.items():
        for i, line in enumerate(text.splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                seen[word].add((f, i))
    return [(m, line, name) for m, names in defined.items() for line, name in names
            if not seen[name] - {(m, line)}]


def test_unused_definitions_are_found():
    source = ("import os\n"
              "A, (B, C) = 1, (2, 3)\n"
              "D: int = 4\n"
              "def f():\n"
              "    return A\n"
              "class K:\n"
              "    x = B\n")
    sources = {"m": source, "other": "f(D)  # K\nBC = 0\n"}
    assert unused_definitions({"m": defined_names(source)}, sources) == [("m", 2, "C")]


def test_every_definition_is_named_elsewhere():
    scanned = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    sources = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
               for p in scanned}
    defined = {f"src/aerialsim/{p.name}": defined_names(sources[f"src/aerialsim/{p.name}"])
               for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(defined, sources) == []


# The parameters and fields below the config that take a model value, or a
# value computed from one (Users.vx and .vy, from the drawn velocities, and
# .hold, from hold_time).
REQUIRED_BELOW_THE_CONFIG = {
    ("geometry", "ServiceArea"): ("side", "h_min", "h_max"),
    ("deployment", "hex_layout"): ("antenna_height", "tx_power"),
    ("deployment", "GroundBS"): ("tx_power",),
    ("radio", "NetworkState"): ("aerial_tx_power",),
    ("mobility", "Users"): ("vx", "vy", "hold"),
}


def has_default(obj) -> dict:
    """Whether each field of a dataclass, or parameter of a function, has a default."""
    if dataclasses.is_dataclass(obj):
        return {f.name: not (f.default is dataclasses.MISSING
                             and f.default_factory is dataclasses.MISSING)
                for f in dataclasses.fields(obj)}
    return {name: p.default is not inspect.Parameter.empty
            for name, p in inspect.signature(obj).parameters.items()}


def test_model_values_have_no_default_below_the_config():
    defaulted = []
    for (module, name), params in REQUIRED_BELOW_THE_CONFIG.items():
        defaults = has_default(getattr(importlib.import_module(f"aerialsim.{module}"), name))
        defaulted += [f"{module}.{name}({p})" for p in params if defaults[p]]
    constants = [f"{p.name}: {name}" for p in sorted(PACKAGE.glob("*.py"))
                 for _, name in defined_names(p.read_text(encoding="utf-8"))
                 if name.startswith("DEFAULT_")]
    assert defaulted + constants == []


def config_shape_faults(cls, prefix: str = "") -> list:
    """Fields of the config dataclass cls and of its sections that are optional,
    default to None, or are sections whose default_factory is not their class."""
    faults = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        name, hint = prefix + f.name, hints[f.name]
        if type(None) in typing.get_args(hint) or f.default is None:
            faults.append(f"{name} is optional")
        if f.default_factory is not dataclasses.MISSING or dataclasses.is_dataclass(hint):
            if f.default_factory is hint:
                faults += config_shape_faults(hint, name + ".")
            else:
                faults.append(f"{name} is a section not made by its default_factory")
    return faults


def test_config_shape_faults_are_found():
    @dataclasses.dataclass(frozen=True)
    class Section:
        x: int = 0
        y: Optional[float] = 1.0

    @dataclasses.dataclass
    class Config:
        a: str = None
        b: Section = dataclasses.field(default_factory=Section)
        c: Section = dataclasses.field(default_factory=dict)
        d: Section = Section()

    assert config_shape_faults(Config) == [
        "a is optional", "b.y is optional", "c is a section not made by its default_factory",
        "d is a section not made by its default_factory"]


def test_config_fields_are_plain_values_and_sections():
    assert config_shape_faults(ScenarioConfig) == []


ENVIRONMENT_READERS = {"environ", "environb", "getenv"}


def environment_reads(source: str) -> list:
    """(line, name) of each use or import of an os environment reader."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names
                      if a.name in ENVIRONMENT_READERS]
    return sorted(found)


def test_environment_reads_are_found():
    source = ("import os\n"
              "from os import getenv, path\n"
              "a = os.environ.get('A', 'x')\n"
              "b = os.getenv('B')\n"
              "c = os.path.join('d', 'e')\n")
    assert environment_reads(source) == [(2, "os.getenv"), (3, "os.environ"),
                                         (4, "os.getenv")]


def test_src_reads_no_environment_variable():
    found = {p.name: environment_reads(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


# The functions, besides every __post_init__, that may raise ConfigurationError:
# the ground layout the config builds, the config loader, and compare's one
# rule on a config.
CONFIG_CHECKERS = {"__post_init__", "hex_layout", "_from_mapping", "build_config",
                   "compare_seed"}


def misplaced_config_raises(source: str) -> list:
    """(line, function) of each raise of ConfigurationError whose innermost
    function is not in CONFIG_CHECKERS (None at module level)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ConfigurationError" \
                        and func not in CONFIG_CHECKERS:
                    found.append((child.lineno, func))
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda f: f[0])


def test_misplaced_config_raises_are_found():
    source = ("class A:\n"
              "    def __post_init__(self):\n"
              "        raise ConfigurationError('ok')\n"
              "    def check(self):\n"
              "        if self:\n"
              "            raise ConfigurationError('late')\n"
              "def hex_layout():\n"
              "    def inner():\n"
              "        raise ConfigurationError\n"
              "    raise ConfigurationError('ok')\n"
              "def step():\n"
              "    raise ValueError('other')\n"
              "raise ConfigurationError('module')\n")
    assert misplaced_config_raises(source) == [(6, "check"), (9, "inner"), (13, None)]


def test_config_rules_are_raised_only_at_the_gate():
    found = {p.name: misplaced_config_raises(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "cli.py"}
    assert {k: v for k, v in found.items() if v} == {}
