"""Smoke tests that the runnable examples stay runnable.

Only the quickstart is executed end-to-end (the others simulate minutes of
traffic, and their scenarios are the paper grids' point functions); for
the rest we check they
compile and expose a main().
"""

import pathlib
import py_compile
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def test_quickstart_runs(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "single-path TCP" in out
    assert "MPTCP" in out


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "wireless_client.py",
        "datacenter_fattree.py",
        "multihomed_server.py",
        "algorithm_tour.py",
    ],
)
def test_examples_compile_and_define_main(script):
    path = EXAMPLES / script
    py_compile.compile(str(path), doraise=True)
    namespace = runpy.run_path(str(path))  # run_name != __main__: no run
    assert callable(namespace.get("main"))
