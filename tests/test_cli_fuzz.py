"""Fuzzed argument vectors for every subcommand.

Whatever the arguments, ``main`` exits 0, 1 or 2 without a traceback, and a
run that exits 1 leaves neither its ``--output``/``--summary`` file nor a
temporary sibling behind. Numbers come from edge values; every size argument
is capped at 8, so no example is large.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from treemax.cli import main
from treemax.tree import StepFunction, Tree, save_step_function

EDGE = ["nan", "-nan", "inf", "-inf", "0", "-0.0", "-1", "-2.5", "1", "1.0000000000000002",
        "64", "65", "1e308", "5e-324", "abc", "0x10", ""]
ORDINARY = ["0.25", "0.5", "1.5", "2", "3", "4"]  # so that many runs get past validation


def _capped(text: str) -> str:
    """A size argument: numbers above 8 become 8, anything else stays."""
    try:
        return "8" if float(text) > 8 else text
    except ValueError:
        return text


number = st.sampled_from(EDGE + ORDINARY * 3)
size = number.map(_capped)
REQUIRED = {"--input", "--p", "--f", "--F"}  # left out only by ``optional``

# option -> strategy for its value, per subcommand
OPTIONS = {
    "maximal": {"--input": st.sampled_from(["phi.csv", "garbage.csv", "missing.csv"]),
                "--p": number},
    "bellman": {"--p": number, "--f": number, "--F": number},
    "verify": {
        "--ineq": st.sampled_from(["1.2", "1.7", "1.8", "1.9", "1.10", "grid", "1.3"]),
        "--p": number, "--q": number, "--beta": number, "--arity": number, "--seed": number,
        "--trials": size, "--depth": size,
    },
    "sharpness": {
        "--family": st.sampled_from(["g_alpha", "g_beta", "G", "h"]),
        "--p": number, "--q": number, "--beta": number, "--f": number,
        "--grid": st.lists(number, max_size=3).map(",".join), "--points": size,
    },
    "oracle": {"--p": number, "--f": number, "--F": number, "--arity": number,
               "--seed": number, "--depth": size, "--budget": size},
    "symmetrize": {
        "--p": number, "--f": number, "--F": number, "--arity": number, "--seed": number,
        "--depth": size, "--seeds": size,
        "--g": st.one_of(
            st.sampled_from(["profile.csv", "rising.csv", "zero.csv", "garbage.csv", "missing.csv",
                             "powerlaw:f=1"]),
            st.builds("powerlaw:f={},alpha={}".format, number, number),
        ),
    },
}


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    optional = draw(st.frozensets(st.sampled_from(sorted(OPTIONS[command]))))
    for option, values in OPTIONS[command].items():
        if (option in REQUIRED) != (option in optional):
            argv += [option, draw(values)]
    if draw(st.booleans()):
        argv += ["--output", "out.txt"]
    if command == "verify" and draw(st.booleans()):
        argv += ["--summary", "summary.json"]
    return argv


def _write_inputs(work: str) -> None:
    save_step_function(StepFunction(Tree(2, 3), [0.5, 4.0, 0.0, 1.0, 1.0, 2.0, 0.25, 3.0]),
                       os.path.join(work, "phi.csv"))
    with open(os.path.join(work, "profile.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,value\n0.25,3\n0.5,1\n1,0.5\n")
    with open(os.path.join(work, "rising.csv"), "w", encoding="utf-8") as fh:
        fh.write("0.5,1\n1,3\n")
    with open(os.path.join(work, "zero.csv"), "w", encoding="utf-8") as fh:
        fh.write("0.5,0\n1,0\n")
    with open(os.path.join(work, "garbage.csv"), "w", encoding="utf-8") as fh:
        fh.write("2,x\n1\nnan,\n")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argument_vectors())
@example(["verify", "--ineq", "1.10", "--p", "64", "--q", "1", "--trials", "8"])
@example(["symmetrize", "--p", "64", "--depth", "8", "--g", "powerlaw:f=1e308,alpha=0"])
@example(["verify", "--ineq", "1.9", "--p", "1.00001", "--q", "1.00001",
          "--beta", "5e-324"])
@example(["verify", "--ineq", "1.10", "--p", "1.00001", "--q", "1.00001",
          "--beta", "5e-324"])
@example(["sharpness", "--family", "g_beta", "--p", "1.00001", "--q", "1.00001",
          "--beta", "5e-324", "--grid", "5e-324"])
@example(["symmetrize", "--p", "2", "--depth", "1", "--g", "rising.csv"])
@example(["symmetrize", "--p", "2", "--depth", "1", "--g", "zero.csv"])
def test_fuzzed_arguments_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as work:
        _write_inputs(work)
        argv = [os.path.join(work, a) if a.endswith((".csv", ".txt", ".json")) else a
                for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2), (argv, status)
        assert "Traceback" not in err.getvalue(), argv
        if status == 1:
            left = set(os.listdir(work)) - {"phi.csv", "profile.csv", "rising.csv", "zero.csv", "garbage.csv"}
            assert not left, (argv, left)
