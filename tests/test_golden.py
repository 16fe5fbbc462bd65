"""Golden bytes: sha256 digests of small runs of every subcommand.

Each case runs ``maxtree`` in a fresh directory and hashes its stdout and
each file it wrote on its own, so a refactor that must leave every output
byte alone (CSV rows, JSON key order, 17-digit floats, trial order) is
checked in one place, and a change to one output re-records that output's
digest only. The digests were recorded with numpy 2.4 on x86-64; a change
that alters output bytes on purpose updates them and says so in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from treemax.cli import main
from treemax.tree import StepFunction, Tree, save_step_function

EMPTY = hashlib.sha256(b"").hexdigest()  # the stdout of a run that writes files

CASES = {
    "verify-grid": (
        "verify --ineq grid --trials 2 --seed 1 --output rows.csv --summary summary.json",
        {
            "stdout": EMPTY,
            "rows.csv": "d26780132bcb5ead7d5a42ede37ccb73ce2e13048908daf1bae6fdb88cf241da",
            "summary.json": "c667866736270d4b88fbb3d2d29fbce05bf57caa6fa0dc02fcf5004076621f7d",
        },
    ),
    # five cells draw two large row blocks each, on every worker, next to
    # their small blocks on the calling thread
    "verify-grid-mixed-blocks": (
        "verify --ineq grid --trials 200 --seed 4 --output rows.csv --summary summary.json",
        {
            "stdout": EMPTY,
            "rows.csv": "e3fa26f7a843abfe45484aec30e1b44c9fe4372c6b4eb6188a4b7103a54424c1",
            "summary.json": "247f0fb606e93cba9ccf2bbdea869325e18e142115d249fe2e9a21bf07e7654a",
        },
    ),
    "verify-1.9": (
        "verify --ineq 1.9 --p 3 --q 2 --beta 0.5 --trials 40 --depth 5 --seed 11"
        " --output rows.csv --summary summary.json",
        {
            "stdout": EMPTY,
            "rows.csv": "03e8e0b48886cd7726051e0716d651423ef3a364fbf9828fd686619185ef88f8",
            "summary.json": "27c2f71468a501e77de259ee08e431d5d9cbdc0e7537b4edf7aa23d743d9b32c",
        },
    ),
    "verify-1.10": (
        "verify --ineq 1.10 --p 2 --q 1.5 --beta 0.8 --trials 12 --seed 3"
        " --output rows.csv --summary summary.json",
        {
            "stdout": EMPTY,
            "rows.csv": "41f83b4b17674285e224336fcfc477e0e264976595411ee789b5748ebd7848d8",
            "summary.json": "7a6e55a3200b3def197824653ee64a3c964aea1cbd083125913acf682a64b85c",
        },
    ),
    # arity 9 averages its levels through numpy's mean, arity 3 through the
    # explicit child sum; p=5, q=3 is where an array power ``v**q`` would
    # round one ulp away from the per-piece scalar ``vi**q``
    "verify-1.2-arity-9": (
        "verify --ineq 1.2 --arity 9 --depth 2 --trials 30 --seed 2",
        {"stdout": "a1786577a691af70a2e2931eb5a4725ccd619291b77207ffc250fdc202f09d64"},
    ),
    "verify-1.9-arity-3": (
        "verify --ineq 1.9 --p 3 --q 2 --arity 3 --depth 7 --trials 20 --seed 6",
        {"stdout": "9da042fc94099c4d7c7ea0d3fbbb3a1d6cf6073aa7c03956a4122bceacd7079a"},
    ),
    "verify-1.10-generic-q": (
        "verify --ineq 1.10 --p 5 --q 3 --beta 0.2 --trials 12 --seed 4"
        " --output rows.csv --summary summary.json",
        {
            "stdout": EMPTY,
            "rows.csv": "e88ee08ebc107100ff31947c9e22f610962892e05a587453ec4150e2c7e67c51",
            "summary.json": "d1b568a9ee40a0b274b9a009d6e10af1a4eb1a19396c57a53fdd203ea39c2106",
        },
    ),
    # p=12: every step piece stops at its first bisection, since the
    # tolerance scales with the integral of g**p (symmetrize-refined below
    # takes the refinement's deeper panels and summation order)
    "verify-1.10-refined": (
        "verify --ineq 1.10 --p 12 --q 4 --beta 0.3 --trials 6 --seed 0"
        " --output rows.csv --summary summary.json",
        {
            "stdout": EMPTY,
            "rows.csv": "44e102dd0f81f5310e6142a0267505f91ceef736c9585cbe91d4af732f583876",
            "summary.json": "49a31a85ed3e6a6f88a31fc251e94067f8d1573cb5416c5397dc161c70fae7e8",
        },
    ),
    # 24 rows of 2**14 leaves, drawn and evaluated in several row blocks
    "verify-1.8-row-blocks": (
        "verify --ineq 1.8 --p 3 --q 2 --beta 0.25 --arity 2 --depth 14 --trials 24 --seed 7",
        {"stdout": "8c7e9d582a47397b96e2035ac930c82493e8bd9649ff68a160690c2b58f1d65d"},
    ),
    "maximal": (
        "maximal --input phi.csv --p 3",
        {"stdout": "29ea65446a93b6f7dd2a0e9db6aa57a9030ae8af8ea235304bbbea63b6ec830d"},
    ),
    "maximal-ternary-ties": (
        "maximal --input phi.csv --p 2",
        {"stdout": "71621f2ace6f7073881edbeccf0d6c73ad482e5970b3bca97cadc5f187a8ae31"},
    ),
    # the report written through --output's replacing file, not stdout
    "maximal-output": (
        "maximal --input phi.csv --p 1.5 --output maximal.json",
        {
            "stdout": EMPTY,
            "maximal.json": "6641bb2272edb6a52d1964bea742714ce8240b4349421f529f6b72aa5a033424",
        },
    ),
    # 8192 leaves and 4330 members: every array and the star map span more
    # than one 4096-item piece of the JSON writer
    "maximal-multichunk": (
        "maximal --input phi.csv --p 2.5 --output maximal.json",
        {
            "stdout": EMPTY,
            "maximal.json": "a49a195e49eea44c2cdbf803947259fd8532004deea04625e5a98c353d730c43",
        },
    ),
    "oracle": (
        "oracle --p 2 --f 1 --F 2 --depth 6 --budget 20 --seed 5",
        {"stdout": "648fd7049179c646a84e3d6d440068173f5deb402ac28b4354594217698b55cc"},
    ),
    "symmetrize": (
        "symmetrize --p 2 --f 1 --F 2 --depth 6 --seeds 20 --seed 9",
        {"stdout": "12dc4edc765e4ae817389b1be52093043e86cb9b6595a16b6cec157f427c3f91"},
    ),
    # a steep step profile: at p=2 most of its pieces refine many levels deep
    "symmetrize-refined": (
        "symmetrize --p 2 --depth 4 --seeds 4 --seed 1 --g phi.csv",
        {"stdout": "b488b9547f2222c4115fba35f186c7226e02602388350681582b5d57fdea5059"},
    ),
    "bellman": (
        "bellman --p 3 --f 1 --F 2",
        {"stdout": "2fd9279b5b5447cc54ca47f9ee3740fa0178b1d1900db35bfb0b6aef1258b65c"},
    ),
    "sharpness-g_beta": (
        "sharpness --family g_beta --p 2 --q 1.5 --points 8",
        {"stdout": "63850ab1688658a3b98167fa49f2240ce82947af6cf5b8241ecb723afc97db49"},
    ),
    "sharpness-G": (
        "sharpness --family G --p 3 --q 2 --points 12",
        {"stdout": "46b4d5bcef76dd31e49fa2762d6c5bace85f90eb265b54d3f270a0d161bd0e22"},
    ),
}

WRITTEN = ("rows.csv", "summary.json", "maximal.json")


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


def _write_multichunk_phi(path) -> None:
    """A 2**13-leaf step function of exponential values rounded to 3 places."""
    values = np.round(np.random.default_rng(2313).exponential(1.0, 2**13), 3)
    save_step_function(StepFunction(Tree(2, 13), values), path)


def _write_steep_profile(path) -> None:
    """``t**-0.5`` at the right ends of 51 pieces of six decades each, from
    1e-300 to 1, as ``t,value`` rows."""
    t = 10.0 ** -np.arange(300, -1, -6, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{r!r},{r ** -0.5!r}\n" for r in t.tolist())


INPUTS = {
    "maximal": _write_seeded_phi,
    "maximal-ternary-ties": _write_tie_heavy_phi,
    "maximal-output": _write_tie_heavy_phi,
    "maximal-multichunk": _write_multichunk_phi,
    "symmetrize-refined": _write_steep_profile,
}


@pytest.mark.parametrize("name", list(CASES))
def test_output_digest(name, tmp_path, monkeypatch, capsys):
    argv, expected = CASES[name]
    monkeypatch.chdir(tmp_path)
    if name in INPUTS:
        INPUTS[name](tmp_path / "phi.csv")
    status = main(argv.split())
    found = {"stdout": hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()}
    for written in WRITTEN:
        path = tmp_path / written
        if path.exists():
            found[written] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert status == 0
    assert found == expected, f"{name}: {found}"
