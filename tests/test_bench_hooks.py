"""The benchmark's tracer hooks into the package by name; a renamed hook fails here.

``perfbench/tracing.py`` is loaded from its file, unedited, installed around
a small verify run and one ``green`` call, and taken out again.
"""

import importlib.util
from pathlib import Path

import invsemi.cli
from invsemi import core

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_records_oracle_build_and_enumeration(capsys):
    compose = core.compose
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert invsemi.cli.main(["verify", "--max-n", "2"]) == 0
        assert invsemi.cli.main(["green", "--n", "3", "--y", "0", "--rel", "L", "--f", "[0 1 1]", "--g", "[0 2 2]"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = tracer.aggregate()
    for name in ("semigroup.oracle.build", "semigroup.enumerate_family"):
        assert spans.get(name, {}).get("calls", 0) > 0, name
    assert core.compose is compose
