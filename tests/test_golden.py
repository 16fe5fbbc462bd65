"""Golden bytes: sha256 digests of small runs of every subcommand.

Each case runs ``maxtree`` in a fresh directory and hashes its stdout
followed by the files it wrote, so a refactor that must leave every output
byte alone (CSV rows, JSON key order, 17-digit floats, trial order) is
checked in one place. The digests were recorded with numpy 2.4 on x86-64;
a change that alters output bytes on purpose updates them and says so in
CHANGES.md. ``MAXTREE_THREADS`` is fixed because the verify config line
echoes the resolved thread count.
"""

import hashlib

import numpy as np
import pytest

from treemax.cli import main
from treemax.tree import StepFunction, Tree, save_step_function

CASES = {
    "verify-grid": (
        "verify --ineq grid --trials 2 --seed 1 --output rows.csv --summary summary.json",
        "f2431542d0224a9df7c592019ee91e42b16b60b58f6aa26d675a475ff62397c6",
    ),
    "verify-1.9": (
        "verify --ineq 1.9 --p 3 --q 2 --beta 0.5 --trials 40 --depth 5 --seed 11"
        " --output rows.csv --summary summary.json",
        "c68681eee585e1d147e83c5ada622e2e90bbced7e8783a29dd7a53c195ecfee9",
    ),
    "verify-1.10": (
        "verify --ineq 1.10 --p 2 --q 1.5 --beta 0.8 --trials 12 --seed 3"
        " --output rows.csv --summary summary.json",
        "20d8e8d360acba84d4a3ea6e56b4d5d674e4c195ace6e890044731dfe43b74a2",
    ),
    "maximal": (
        "maximal --input phi.csv --p 3",
        "29ea65446a93b6f7dd2a0e9db6aa57a9030ae8af8ea235304bbbea63b6ec830d",
    ),
    "oracle": (
        "oracle --p 2 --f 1 --F 2 --depth 6 --budget 20 --seed 5",
        "fc4646084c385ca851ac01a30d91b70d09342086dd9f11beba80c7d6e7523104",
    ),
    "symmetrize": (
        "symmetrize --p 2 --f 1 --F 2 --depth 6 --seeds 20 --seed 9",
        "12dc4edc765e4ae817389b1be52093043e86cb9b6595a16b6cec157f427c3f91",
    ),
    "bellman": (
        "bellman --p 3 --f 1 --F 2",
        "fca6476255b21533ec8dc9b5ee289eeb11287543f5e8a292ad8f57d699fe51da",
    ),
    "sharpness-g_beta": (
        "sharpness --family g_beta --p 2 --q 1.5 --points 8",
        "c892fa3194a31461a2a1eab5dc80cec927d9a4fb09c7a8a785f02b2368290809",
    ),
    "sharpness-G": (
        "sharpness --family G --p 3 --q 2 --points 12",
        "46b4d5bcef76dd31e49fa2762d6c5bace85f90eb265b54d3f270a0d161bd0e22",
    ),
}

WRITTEN = ("rows.csv", "summary.json")


def _write_seeded_phi(path) -> None:
    """A 2**10-leaf step function with ties and heavy spikes."""
    rng = np.random.default_rng(1604)
    values = np.round(rng.exponential(1.0, 1024), 2)
    values[rng.random(1024) < 0.05] *= 30.0
    save_step_function(StepFunction(Tree(2, 10), values), path)


@pytest.mark.parametrize("name", list(CASES))
def test_output_digest(name, tmp_path, monkeypatch, capsys):
    argv, expected = CASES[name]
    monkeypatch.setenv("MAXTREE_THREADS", "2")
    monkeypatch.chdir(tmp_path)
    if name == "maximal":
        _write_seeded_phi(tmp_path / "phi.csv")
    status = main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
    for written in WRITTEN:
        path = tmp_path / written
        if path.exists():
            digest.update(path.read_bytes())
    assert status == 0
    assert digest.hexdigest() == expected, f"{name}: {digest.hexdigest()}"
