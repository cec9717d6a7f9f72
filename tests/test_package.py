"""The package's public names and its imports."""

import os
import subprocess
import sys

import fqec


def test_all_names_resolve_without_duplicates():
    assert len(fqec.__all__) == len(set(fqec.__all__))
    missing = [name for name in fqec.__all__ if not hasattr(fqec, name)]
    assert missing == []


def test_cli_import_loads_no_networkx():
    # networkx is a test dependency only: the planarity kernel is our own.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqec.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, fqec.cli\n"
        "print('\\n'.join(m for m in sys.modules if m == 'networkx' or m.startswith('networkx.')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
