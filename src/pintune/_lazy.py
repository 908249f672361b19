"""numpy on first use: each module that uses arrays imports `numpy` from here,
so a process that touches no array (`pintune calibrate`, `--help`, every
validation exit) never executes numpy, about half of its start-up.

No module here may `import numpy` itself: the statement reads the lazy
module's `__spec__`, which executes it at once.  Before Python 3.12
importlib.util.LazyLoader (the pattern of Scientific Python's SPEC 1) is not
thread-safe; the package starts no threads.
"""

import importlib.util
import sys


def load(name):
    """The module `name` if it is imported; else that module, registered under
    its name and executed at its first attribute access."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:  # as `import name` would
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


numpy = load("numpy")
