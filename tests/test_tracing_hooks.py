import json
import subprocess
import sys
from pathlib import Path

import aerialsim

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# Imports aerialsim afresh, loads the benchmark's tracer from its file, and
# prints every (module, attribute) in its SPANNED list that is not a callable
# on the package; then installs and uninstalls the tracer, which also patches
# attributes outside SPANNED.
SCRIPT = """
import importlib, importlib.util, json, sys
importlib.import_module("aerialsim.cli")
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = [f"{m}.{a}" for m, a, _ in tracing.SPANNED
           if not callable(getattr(sys.modules.get(m), a, None))]
if not missing:
    modules = {m: sys.modules[m] for m in sys.modules if m.startswith("aerialsim.")}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.SPANNED}
    tracer = tracing.Tracer()
    tracer.install(modules)
    tracer.uninstall()
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())
print(json.dumps(missing))
"""


def test_every_traced_attribute_exists():
    src = str(Path(aerialsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(TRACING)], cwd=src,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == []
