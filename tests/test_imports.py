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

Raise sites: outside cli.py, src/aerialsim raises ConfigurationError only
in a __post_init__ (the config and the values it is built from) and in the
few functions that build or load a config (CONFIG_CHECKERS), so a rule the
config applies is not checked again below it. Its only other raises are the
ones KEPT_RAISES lists, once each, with the reason each stays.

Power: src calls np.power only in channel.dbm_to_mw, whose work= argument
gives the power an array base; a scalar base reaches numpy's power loop as a
stride-0 operand, which costs about twice as much for the same bits.

Records: every dataclass of src/aerialsim with a field annotated
np.ndarray, List[...] or Sequence[...] passes eq=False. The generated ==
would compare arrays, which raises ValueError, and leave a mutable or
frozen record unhashable; with eq=False a record equals only itself.
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
                   "check_compare_config"}
# The other raises src keeps below the config gate, once each, by (function,
# exception), with the reason each stays.
KEPT_RAISES = {
    ("emit_outputs", "OSError"):
        "a failed write names the output directory",
    ("sinr_cdf", "ValueError"):
        "a user whose time-averaged SINR underflowed to 0 has no SINR in dB",
    ("_ConfigLoader.flatten_mapping", "ConstructorError"):
        "a key written twice in one mapping of a config file is a YAML error",
    ("PlacementGrid.unravel", "IndexError"):
        "the one range check on a state index that tests and bench/ pass in; "
        "numpy would wrap a negative index silently",
    ("learn_placement", "TypeError"):
        "the learner decodes PCG64 words, so rng must run on PCG64",
}


def raises_below_the_gate(source: str) -> list:
    """(line, function, exception) of each raise that is not a ConfigurationError
    in a CONFIG_CHECKERS function. function is the innermost function,
    qualified by its class (None at module level); exception is the raised
    name (None for a bare re-raise)."""
    found = []

    def visit(node, func, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, func, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name, None)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                at_gate = func is not None and func.split(".")[-1] in CONFIG_CHECKERS
                if not (name == "ConfigurationError" and at_gate):
                    found.append((child.lineno, func, name))
            visit(child, func, cls)

    visit(ast.parse(source), None, None)
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
              "raise ConfigurationError('module')\n"
              "class L(yaml.SafeLoader):\n"
              "    def flatten_mapping(self, node):\n"
              "        try:\n"
              "            raise yaml.constructor.ConstructorError(None)\n"
              "        except KeyError:\n"
              "            raise\n"
              "def build_config():\n"
              "    raise OSError('not a config rule')\n")
    assert raises_below_the_gate(source) == [
        (6, "A.check", "ConfigurationError"), (9, "inner", "ConfigurationError"),
        (12, "step", "ValueError"), (13, None, "ConfigurationError"),
        (17, "L.flatten_mapping", "ConstructorError"), (19, "L.flatten_mapping", None),
        (21, "build_config", "OSError")]


def test_config_rules_are_raised_only_at_the_gate():
    # Each kept raise once, and no other: a rule the config applies is not
    # checked again below it, and a guard for a state no accepted config and
    # no caller reaches is deleted, not kept.
    found = {(p.name, line): (func, exc) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "cli.py"
             for line, func, exc in raises_below_the_gate(p.read_text(encoding="utf-8"))}
    assert sorted(found.values()) == sorted(KEPT_RAISES), found


# An annotation that holds an array or a list somewhere in it.
ARRAY_ANNOTATION = re.compile(r"\bnp\.ndarray\b|\b(List|Sequence)\[")


def array_records_with_eq(source: str) -> list:
    """(line, class) of each @dataclass with a field annotated np.ndarray,
    List[...] or Sequence[...] that does not pass eq=False."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = ast.unparse(call.func if call else deco)
            if target not in ("dataclass", "dataclasses.dataclass"):
                continue
            eq_off = call is not None and any(
                k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in call.keywords)
            holds_array = any(isinstance(f, ast.AnnAssign)
                              and ARRAY_ANNOTATION.search(ast.unparse(f.annotation))
                              for f in node.body)
            if holds_array and not eq_off:
                found.append((node.lineno, node.name))
    return found


def test_array_records_with_eq_are_found():
    source = ("@dataclass(frozen=True)\n"
              "class A:\n"
              "    x: np.ndarray\n"
              "@dataclasses.dataclass\n"
              "class B:\n"
              "    y: List[int]\n"
              "@dataclass(eq=False)\n"
              "class C:\n"
              "    z: Sequence[float]\n"
              "@dataclass\n"
              "class D:\n"
              "    w: int = 0\n"
              "    v: Optional[np.ndarray] = None\n"
              "@dataclass(frozen=True, eq=True)\n"
              "class E:\n"
              "    u: Sequence[int]\n"
              "@dataclass\n"
              "class F:\n"
              "    t: Tuple[int, int]\n"
              "    ndarray: int = 0\n"
              "class G:\n"
              "    s: np.ndarray\n")
    assert array_records_with_eq(source) == [(2, "A"), (5, "B"), (11, "D"), (15, "E")]


def test_records_of_arrays_and_lists_pass_eq_false():
    found = {p.name: array_records_with_eq(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


# The one function of src that may call np.power.
POWER_HOME = ("channel.py", "dbm_to_mw")


def power_calls(source: str) -> list:
    """(line, function) of each np.power or numpy.power call; function is the
    innermost function (None at module level)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "power" and isinstance(child.func.value, ast.Name) \
                    and child.func.value.id in ("np", "numpy"):
                found.append((child.lineno, func))
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found)


def test_power_calls_are_found():
    source = ("import numpy as np\n"
              "def dbm_to_mw(x):\n"
              "    return np.power(10.0, x)\n"
              "class A:\n"
              "    def f(self, x):\n"
              "        return numpy.power(x, 2) + np.square(x) + x.power\n"
              "y = np.power(10.0, np.power(2.0, 3))\n")
    assert power_calls(source) == [(3, "dbm_to_mw"), (6, "f"), (7, None), (7, None)]


def test_np_power_is_called_only_in_dbm_to_mw():
    found = {(p.name, func) for p in sorted(PACKAGE.glob("*.py"))
             for _, func in power_calls(p.read_text(encoding="utf-8"))}
    assert found == {POWER_HOME}
