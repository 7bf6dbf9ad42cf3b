"""The package's public surface: `dscsim.__all__` and the attributes of
`dscsim` agree, so a deleted or added name cannot drift out of step."""

import os
import subprocess
import sys
import types
from pathlib import Path

import dscsim


def test_every_listed_name_resolves():
    missing = [name for name in dscsim.__all__ if not hasattr(dscsim, name)]
    assert missing == []


def test_every_public_attribute_is_listed():
    public = {
        name for name, value in vars(dscsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(dscsim.__all__)) == []


def test_import_loads_no_process_machinery():
    # Only run_members at jobs > 1 imports multiprocessing, and the package
    # never imports concurrent.futures.
    src = str(Path(dscsim.__file__).resolve().parents[1])
    code = ("import sys, dscsim, dscsim.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"
