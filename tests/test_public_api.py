"""Public-API consistency checks.

Guards against export drift: everything listed in each package's
``__all__`` must exist, the CLI's scheme registry must stay in sync
with the policy package, and the paper's core vocabulary must remain
importable from the documented locations.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.dag",
    "repro.cluster",
    "repro.policies",
    "repro.core",
    "repro.control",
    "repro.simulator",
    "repro.tenancy",
    "repro.workloads",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


def test_all_lists_are_sorted():
    for package in PACKAGES:
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        assert list(exported) == sorted(exported), f"{package}.__all__ unsorted"


def test_cli_schemes_construct():
    from repro.policies import CacheScheme
    from repro.sweep.schemes import SCHEME_SPECS

    for name, spec in SCHEME_SPECS.items():
        scheme = spec.build()
        assert isinstance(scheme, CacheScheme), name


def test_paper_vocabulary_importable():
    """The names a reader of the paper would look for."""
    from repro.core import (  # noqa: F401
        AppProfiler,
        CacheMonitor,
        MrdManager,
        MrdScheme,
        MrdTable,
    )
    from repro.policies import (  # noqa: F401
        BeladyScheme,
        LrcScheme,
        LruScheme,
        MemTuneScheme,
    )
    from repro.simulator import (  # noqa: F401
        LRC_CLUSTER,
        MAIN_CLUSTER,
        MEMTUNE_CLUSTER,
        simulate,
    )


def test_version_matches_pyproject():
    import repro

    pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    assert f'version = "{repro.__version__}"' in pyproject.read_text()


def test_runtime_imports_skip_numpy_and_networkx():
    """Running the simulator, the tenancy layer or the report loads
    neither numpy nor networkx (networkx only backs the optional DAG
    graph exports, imported when one is built)."""
    import repro

    src = str(pathlib.Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    code = (
        "import sys\n"
        "import repro.experiments.report, repro.simulator.engine, repro.tenancy.engine\n"
        "print(sorted(m for m in ('numpy', 'networkx') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
