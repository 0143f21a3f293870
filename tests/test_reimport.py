import subprocess
import sys
from pathlib import Path

import aerialsim

# Re-imports the package the way a fresh-import loop does, then counts the
# Position3D classes still alive. Each annotation evaluated at import time
# (Optional[Position3D], List[...]) sits in typing's cache and would keep an
# old copy of its module alive.
SCRIPT = """
import gc, importlib, sys
for _ in range(10):
    for name in [m for m in sys.modules if m.split(".")[0] == "aerialsim"]:
        del sys.modules[name]
    importlib.import_module("aerialsim.cli")
gc.collect()
print(sum(isinstance(o, type) and o.__name__ == "Position3D"
          for o in gc.get_objects()))
"""


def test_reimport_leaves_one_copy_of_each_class():
    src = str(Path(aerialsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "1"
