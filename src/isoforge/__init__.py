"""Numerical toolkit for isothermic surfaces with planar curvature lines.

The submodules a command may not need are registered in `sys.modules` as
lazy modules: each one executes its body on first attribute access, so a
command compiles and runs only the modules it uses.
"""

import importlib.machinery
import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazy(name):
    fullname = f"{__name__}.{name}"
    spec = importlib.machinery.PathFinder.find_spec(fullname, __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in ("curvefamily", "reparam", "quat", "frame", "surface",
              "spherical", "textfmt"):
    globals()[_name] = _register_lazy(_name)
del _name
