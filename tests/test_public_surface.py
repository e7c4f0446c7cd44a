"""The package's exported names and README's quick start must stay live.

A deleted object that an ``__all__`` still lists, or that README's Python
examples still call, fails here rather than in a user's session.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import transferfn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    modules = [transferfn] + [
        importlib.import_module(f"transferfn.{info.name}") for info in pkgutil.iter_modules(transferfn.__path__)
    ]
    for module in modules:
        names = module.__all__  # the package's is every module's share, so a name listed by two modules fails here
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
