"""What ``import repro`` costs every process: no third-party module, and
only the ``repro`` modules the caller goes on to use."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import repro
from repro.exp.grids import SCENARIOS, point_function

# Import every module of the package (``repro.__main__`` would run the
# CLI) in a fresh interpreter, after recording the modules it starts
# with (``site`` may already pull a package in through a ``.pth`` file),
# and list each added module that lives in site-packages rather than the
# stdlib or ``src/repro``.
THIRD_PARTY_PROBE = """
import importlib, json, pkgutil, site, sys, sysconfig
bare = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
roots = tuple({*site.getsitepackages(), site.getusersitepackages(),
               sysconfig.get_paths()["purelib"], sysconfig.get_paths()["platlib"]})
added = set(sys.modules) - bare
print(json.dumps(sorted(
    name for name in added
    if not name.startswith("repro")
    and (getattr(sys.modules[name], "__file__", None) or "").startswith(roots)
)))
"""

# What a ``torus_packet`` process does: import the package, expand the
# Fig 8 grid, run one point in-process through the Runner.
POINT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")
import repro
on_import = loaded()
from repro.exp import Runner, ScenarioSpec, specs_for_grid
specs_for_grid("fig8_torus")
params = {"algo": "mptcp", "capacity_c": 250.0}
Runner().run([ScenarioSpec("torus_balance", params, seed=1,
                           warmup=0.2, duration=0.3)])
print(json.dumps({"import": on_import, "point": loaded()}))
"""

# A packet-tier run of a point that also runs on the rt tier.
HANDOVER_PROBE = """
import json, sys
from repro.exp import Runner, ScenarioSpec
Runner().run([ScenarioSpec("wifi_3g_handover", {"algo": "lia"}, seed=1,
                           warmup=0.2, duration=0.6)])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""

# What the CLI loads before it runs anything.
CLI_PROBE = """
import json, sys
import repro.cli
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""

#: Subsystems a packet-tier point never runs, so never imports.
UNUSED_BY_A_PACKET_POINT = (
    "repro.rt", "repro.farm", "repro.fluid", "repro.hybrid", "repro.pathmgr",
    "repro.traffic", "repro.exp.paper", "repro.exp.claims", "repro.obs.schema",
    "repro.obs.series", "repro.check.invariants", "repro.fault.faults",
    "repro.topology.fattree",
    "repro.topology.bcube", "repro.topology.wireless",
    "repro.harness.datacenter",
)


def _probe(source: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run(
        [sys.executable, "-c", source],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def _packages():
    return ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.") if info.ispkg]


class TestImportBudget:
    def test_import_repro_loads_no_third_party_module(self):
        """A count, not a clock: the package has no runtime dependency,
        so importing any of its modules adds only ``repro.*`` and stdlib
        modules.  A third-party import anywhere in the package (networkx
        was one, at ~13 MiB of every process) fails here."""
        assert _probe(THIRD_PARTY_PROBE) == []

    def test_a_packet_point_loads_only_what_it_runs(self):
        """A count, not a clock: ``import repro`` loads nothing but the
        export resolver, and a Fig 8 torus point loads no module of a
        subsystem it does not run (each one is compiled from source in
        every short-lived process when bytecode writing is off)."""
        loaded = _probe(POINT_PROBE)
        assert loaded["import"] == ["repro", "repro._exports"]
        unused = [m for m in loaded["point"] if any(
            m == prefix or m.startswith(prefix + ".")
            for prefix in UNUSED_BY_A_PACKET_POINT)]
        assert unused == []

    def test_a_packet_handover_point_loads_no_rt_module(self):
        """A count, not a clock: the tier picks the backend, so a point
        that can also run on real sockets loads none of ``repro.rt``
        when it runs on the packet tier."""
        loaded = _probe(HANDOVER_PROBE)
        assert "repro.pathmgr.handover" in loaded
        assert [m for m in loaded if m == "repro.rt"
                or m.startswith("repro.rt.")] == []

    def test_checking_a_claim_loads_no_point_function(self):
        """A count, not a clock: the CLI reaches the claims table
        without the paper's point functions, so ``import repro.cli``
        loads no topology, traffic or fabric module that only they
        use."""
        loaded = _probe(CLI_PROBE)
        assert "repro.exp.claims" in loaded
        point_only = ("repro.exp.paper", "repro.topology.fattree",
                      "repro.topology.bcube", "repro.traffic",
                      "repro.harness.datacenter")
        assert [m for m in loaded if any(
            m == prefix or m.startswith(prefix + ".")
            for prefix in point_only)] == []


class TestExportTables:
    @pytest.mark.parametrize("package", _packages())
    def test_every_export_resolves(self, package):
        """A typo in a package's export table would otherwise fail only
        on first use of that one name."""
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            assert not isinstance(value, types.ModuleType), (
                f"{package}.{name} resolved to a module")
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(module.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        assert not hasattr(repro, "no_such_name")
        with pytest.raises(ImportError):
            exec("from repro.net import no_such_name", {})

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_point_function_resolves(self, name):
        fn = point_function(name)
        assert callable(fn) and fn.__name__ == name

    def test_unknown_point_function_is_named(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            point_function("nope")
