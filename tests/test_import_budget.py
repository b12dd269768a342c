"""What ``import repro`` costs every process: no third-party module."""

import json
import os
import subprocess
import sys

# Run in a fresh interpreter: record the modules it starts with (``site``
# may already pull a package in through a ``.pth`` file), import what
# perfbench and every forked worker import, and list each added module
# that lives in site-packages rather than the stdlib or ``src/repro``.
PROBE = """
import json, site, sys, sysconfig
bare = set(sys.modules)
import repro, repro.exp
roots = tuple({*site.getsitepackages(), site.getusersitepackages(),
               sysconfig.get_paths()["purelib"], sysconfig.get_paths()["platlib"]})
added = set(sys.modules) - bare
print(json.dumps(sorted(
    name for name in added
    if not name.startswith("repro")
    and (getattr(sys.modules[name], "__file__", None) or "").startswith(roots)
)))
"""


class TestImportBudget:
    def test_import_repro_loads_no_third_party_module(self):
        """A count, not a clock: the package has no runtime dependency,
        so importing it adds only ``repro.*`` and stdlib modules.  A
        third-party import on the start-up path (networkx was one, at
        ~13 MiB of every process) fails here."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        out = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == []
