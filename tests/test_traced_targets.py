"""The benchmark's traced functions still exist under their names.

A traced benchmark run (``perfbench/run.py --trace 1``) wraps every function
named in ``perfbench/layers.py``'s ``TARGETS`` and reads its arguments and
result. A function that is removed, renamed or reshaped silently drops its
metrics from that run, so these tests fail first: such a change needs a
matching update of the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

from treemax.cli import main  # noqa: E402
from treemax.sweeps import battery_cells  # noqa: E402


@pytest.mark.parametrize("key", [target.key for target in layers.TARGETS])
def test_target_resolves_to_a_function(key):
    module, name = key.rsplit(".", 1)
    home = importlib.import_module(f"{layers.PACKAGE}.{module}")
    assert callable(getattr(home, name, None)), f"{layers.PACKAGE}.{key} is gone"


def test_traced_battery_counts_every_call(tmp_path, capsys):
    tracer = Tracer(layers.PACKAGE, layers.TARGETS)
    tracer.install()
    try:
        status = main([
            "verify", "--ineq", "grid", "--trials", "2", "--seed", "1",
            "--output", str(tmp_path / "grid.csv"), "--summary", str(tmp_path / "grid.json"),
        ])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert status == 0
    assert tracer.absent == set()
    assert tracer.count_errors == set()
    names = [span.name for span in tracer.spans]
    assert names.count("sweeps.run_battery") == 1
    assert names.count("sweeps.evaluate_cell") == len(battery_cells())
    assert names.count("sweeps.batch_maximal_leaves") >= len(battery_cells())
