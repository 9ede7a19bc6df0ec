"""Import a checkout's ``src/ktabsa`` as a package of its own name, so the
timing scripts load two revisions side by side in one process."""

import importlib
import importlib.util
import os
import sys


def load_checkout(src: str, name: str, *modules: str) -> tuple:
    """The ``modules`` of the package ``src/ktabsa``, imported as the
    package ``name``."""
    pkg = os.path.join(src, "ktabsa")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{m}") for m in modules)
