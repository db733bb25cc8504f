"""The package namespace: ``__all__`` names load on first use."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dispersive_nphoton as dn


def _fresh(probe):
    """Standard output of ``python -c probe`` in a fresh interpreter."""
    src = str(Path(dn.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_numpy_and_keeps_environment():
    probe = (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import dispersive_nphoton\n"
        "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before,"
        " sorted(m for m in sys.modules if m.startswith('dispersive_nphoton')),"
        " dispersive_nphoton.__version__]))"
    )
    assert _fresh(probe) == [False, True, ["dispersive_nphoton"], dn.__version__]


def test_first_use_loads_only_its_submodule():
    probe = (
        "import json, sys\n"
        "import dispersive_nphoton as dn\n"
        "dn.ConfigError\n"
        "print(json.dumps(['numpy' in sys.modules, sorted(m for m in sys.modules"
        " if m.startswith('dispersive_nphoton'))]))"
    )
    assert _fresh(probe) == [False, ["dispersive_nphoton", "dispersive_nphoton.errors"]]


def test_names_are_unique_and_version_first():
    assert dn.__all__[0] == "__version__"
    assert len(set(dn.__all__)) == len(dn.__all__) == 59


def test_fresh_interpreter_resolves_every_name_to_its_submodule():
    probe = (
        "import importlib, json\n"
        "import dispersive_nphoton as dn\n"
        "names = [n for n in dn.__all__ if n != '__version__']\n"
        "home = {n: getattr(dn, n).__module__ for n in names}\n"
        "print(json.dumps([n for n in names"
        " if not home[n].startswith('dispersive_nphoton.')"
        " or getattr(importlib.import_module(home[n]), n) is not getattr(dn, n)]))"
    )
    assert _fresh(probe) == []


def test_dir_lists_all():
    assert set(dn.__all__) <= set(dir(dn))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dn.no_such_name
    assert not hasattr(dn, "no_such_name")
    with pytest.raises(ImportError):
        from dispersive_nphoton import no_such_name  # noqa: F401


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dispersive_nphoton import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dn.__all__)
    assert all(namespace[name] is getattr(dn, name) for name in dn.__all__)
