"""Package imports: lazy re-exports and the serving worker's import set.

The package ``__init__`` modules re-export their public names lazily
(:mod:`repro._lazy`), so importing one module loads only what it uses.
These tests pin both halves of that contract: every exported name still
resolves, and a spawned serving worker stays off the compression, training,
asyncio and SciPy code it never runs.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = ("repro", "repro.core", "repro.nn", "repro.pruning", "repro.serve")

#: What ``repro.serve.worker._worker_main`` imports in a spawned worker.
WORKER_IMPORTS = ("repro.serve.worker", "repro.serve.shm", "repro.serve.gateway")

#: Module trees a worker never runs, so must never import.
WORKER_NEVER_IMPORTS = (
    "scipy",
    "asyncio",
    "repro.core.assessment",
    "repro.core.pipeline",
    "repro.data",
    "repro.analysis",
    "repro.sim",
    "repro.serve.async_gateway",
    "repro.serve.http",
)


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter that imports ``repro`` from this tree."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_worker_imports_only_the_serving_path():
    code = (
        "import json, sys\n"
        f"import {', '.join(WORKER_IMPORTS)}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(_fresh_interpreter(code))
    assert set(WORKER_IMPORTS) <= set(loaded)
    leaked = [
        name
        for name in loaded
        if any(name == tree or name.startswith(tree + ".") for tree in WORKER_NEVER_IMPORTS)
    ]
    assert leaked == []


def test_lazy_names_resolve_in_a_fresh_interpreter():
    code = (
        "import sys\n"
        "import repro\n"
        "assert 'repro.core' not in sys.modules\n"
        "assert repro.core.DeepSZ.__module__ == 'repro.core.pipeline'\n"
        "from repro import codecs\n"
        "assert codecs is sys.modules['repro.codecs']\n"
        "from repro.serve import Gateway\n"
        "assert Gateway.__module__ == 'repro.serve.gateway'\n"
        "assert 'repro.serve.async_gateway' not in sys.modules\n"
        "print('ok')\n"
    )
    assert _fresh_interpreter(code).strip() == "ok"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyReexports:
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listed, name

    def test_star_import_binds_every_exported_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert [name for name in module.__all__ if name not in namespace] == []

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")

    def test_a_resolved_name_is_stored_on_the_package(self, package, monkeypatch):
        module = importlib.import_module(package)
        name = next(n for n in module.__all__ if n != "__version__")
        monkeypatch.delitem(vars(module), name, raising=False)
        value = getattr(module, name)
        assert vars(module)[name] is value
