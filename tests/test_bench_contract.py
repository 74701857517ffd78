"""The names the benchmark's tracer wraps still exist with the signatures it
records by.

`perfbench/trace_cli.py` looks each entry of its TARGETS up with getattr and
records `l_value(chi, t)`, `gauss_sum_brute(chi, n)` and
`render_rows(table, fmt)` by position, so renaming or re-signing one of them
would crash every traced benchmark run.  This reads TARGETS as the benchmark
does, through sys.path, and changes nothing under perfbench/.
"""

import importlib
import inspect
import math
import pathlib
import sys

import pytest

from cosetlfun.characters import DirichletCharacter
from cosetlfun.modular import modulus

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def trace_cli():
    sys.path.insert(0, str(PERFBENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("trace_cli")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("trace_cli", None)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_target_resolves(trace_cli):
    assert len(trace_cli.TARGETS) == 22
    for metric, module, path in trace_cli.TARGETS:
        assert callable(_resolve(module, path)), metric


@pytest.mark.parametrize(
    "metric,args",
    [
        ("lcentral.l_value", ("chi", 0.0)),
        ("gauss.gauss_sum_brute", ("chi", 1)),
        ("report.render_rows", ("table", "csv")),
    ],
)
def test_recorded_signatures_bind(trace_cli, metric, args):
    targets = {name: (module, path) for name, module, path in trace_cli.TARGETS}
    inspect.signature(_resolve(*targets[metric])).bind(*args)


def test_l_value_carries_the_recorded_bound(trace_cli):
    l_value = _resolve("cosetlfun.lcentral", "l_value")
    assert math.isfinite(l_value(DirichletCharacter(modulus(5, 2), 2), 0.0).abs_error_bound)
