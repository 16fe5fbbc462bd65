"""Golden bytes: sha256 digests of small runs of every subcommand.

Each case runs ``maxtree`` in a fresh directory and hashes its stdout
followed by the files it wrote, so a refactor that must leave every output
byte alone (CSV rows, JSON key order, 17-digit floats, trial order) is
checked in one place. The digests were recorded with numpy 2.4 on x86-64;
a change that alters output bytes on purpose updates them and says so in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from treemax.cli import main
from treemax.tree import StepFunction, Tree, save_step_function

CASES = {
    "verify-grid": (
        "verify --ineq grid --trials 2 --seed 1 --output rows.csv --summary summary.json",
        "838febf87771f8ef696c5278d356676bc0fa4f61dbee6a45403f0cffbe1eb99a",
    ),
    "verify-1.9": (
        "verify --ineq 1.9 --p 3 --q 2 --beta 0.5 --trials 40 --depth 5 --seed 11"
        " --output rows.csv --summary summary.json",
        "74214bbb4829342cf07e89895abc972e854293354449ae2ca2167434f048150b",
    ),
    "verify-1.10": (
        "verify --ineq 1.10 --p 2 --q 1.5 --beta 0.8 --trials 12 --seed 3"
        " --output rows.csv --summary summary.json",
        "d0134e06b1e7f02f2a14140c9942a976cf00975706f415c3800a5c3921710cc2",
    ),
    # arity 9 averages its levels through numpy's mean, arity 3 through the
    # explicit child sum; p=5, q=3 is where an array power ``v**q`` would
    # round one ulp away from the per-piece scalar ``vi**q``
    "verify-1.2-arity-9": (
        "verify --ineq 1.2 --arity 9 --depth 2 --trials 30 --seed 2",
        "36a16d3d626b23eb76a5ffa946fb6f43b3c8e93856411d6883cb47eafa7a308a",
    ),
    "verify-1.9-arity-3": (
        "verify --ineq 1.9 --p 3 --q 2 --arity 3 --depth 7 --trials 20 --seed 6",
        "072f92760ad5029d16273d70f65ef17882f4b842a85d4243d953e747b0bcf4e6",
    ),
    "verify-1.10-generic-q": (
        "verify --ineq 1.10 --p 5 --q 3 --beta 0.2 --trials 12 --seed 4"
        " --output rows.csv --summary summary.json",
        "5833e802a64e7e243db68837a4b49edf18c0eebd780dc8eeb4941ebc9672217d",
    ),
    # p=12 is steep enough that 23 step pieces need Gauss panels below their
    # first bisection: the adaptive refinement's panels and summation order
    "verify-1.10-refined": (
        "verify --ineq 1.10 --p 12 --q 4 --beta 0.3 --trials 6 --seed 0"
        " --output rows.csv --summary summary.json",
        "e16ab1999d74f4a251e21a318a65c26d868c357b50d6e997bb492ef8262f9d89",
    ),
    # 24 rows of 2**14 leaves: one drawn batch, evaluated in several row blocks
    "verify-1.8-row-blocks": (
        "verify --ineq 1.8 --p 3 --q 2 --beta 0.25 --arity 2 --depth 14 --trials 24 --seed 7",
        "c7350b9383b841f20161cd83e9e08fcedb0bc81595a01f438b37638418b7e1b3",
    ),
    "maximal": (
        "maximal --input phi.csv --p 3",
        "29ea65446a93b6f7dd2a0e9db6aa57a9030ae8af8ea235304bbbea63b6ec830d",
    ),
    "maximal-ternary-ties": (
        "maximal --input phi.csv --p 2",
        "71621f2ace6f7073881edbeccf0d6c73ad482e5970b3bca97cadc5f187a8ae31",
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


def _write_tie_heavy_phi(path) -> None:
    """A 3**6-leaf step function of a few rounded values with constant
    subtrees, so many nodes tie with their ancestors' averages."""
    rng = np.random.default_rng(3606)
    values = rng.integers(0, 3, 729) * 0.5
    values[:243] = 1.0
    values[486:513] = 2.0
    save_step_function(StepFunction(Tree(3, 6), values), path)


INPUTS = {"maximal": _write_seeded_phi, "maximal-ternary-ties": _write_tie_heavy_phi}


@pytest.mark.parametrize("name", list(CASES))
def test_output_digest(name, tmp_path, monkeypatch, capsys):
    argv, expected = CASES[name]
    monkeypatch.chdir(tmp_path)
    if name in INPUTS:
        INPUTS[name](tmp_path / "phi.csv")
    status = main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
    for written in WRITTEN:
        path = tmp_path / written
        if path.exists():
            digest.update(path.read_bytes())
    assert status == 0
    assert digest.hexdigest() == expected, f"{name}: {digest.hexdigest()}"
