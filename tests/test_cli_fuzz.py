"""Hostile input to the command line: a documented exit code, never a traceback.

Instance and packing texts come from a small token grammar: well-formed
rows, of which one token may be swapped for a hostile one (a duplicate or
non-integer id, or a number at or beyond the parser's bounds: zero, above
one, a zero denominator, an exponent past MAX_EXPONENT, more than
MAX_DIGITS digits, non-ASCII digits), under a count that may be negative or
disagree with the line count.  `pack`, `oracle`, `validate` and `render`
read them, from files and from stdin (`-`); `gen` runs on argument
vectors that argparse accepts but the command may refuse: counts from -1
up, and output paths that are a file, `-` or both naming one file.  So do
`pack --k` / `--eps` and `oracle --max-bins`, under hostile values of the
solver's environment variables (K, EPS_OPT1 and the limits): non-ASCII
digits, -1, 0 and values past their bounds.  Every main() call runs under
a 10 s timer.  Argparse's own usage errors (exit 2 with a usage block) are
out of scope.
"""

import contextlib
import io
import os
import signal
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbin.cli import main
from rectbin.config import MAX_LIMIT

SIZES = ["1", "1/2", "1/3", "2/3", "1/4", "3/4", "0.5", "1/100"]
COORDS = ["0", "1/2", "1/3", "1/4", "3/4"]
HOSTILE = ["0", "3/2", "1/0", "1e-5000", "1e4299", "1" + "0" * 4300, "١/٢"]
IDS = ["0", "1", "-1", "1.5", "x", "١"]
INTS = ["-1", "0", "1", "2", "3", "٣", str(MAX_LIMIT), str(MAX_LIMIT + 1)]
EPSES = ["-1", "0", "1/256", "1/200", "0.001", "1e-5000", "١/٢٥٦"]
SOLVER_VARIABLES = ["K", "EPS_OPT1", "EXACT_LIMIT", "ENUMERATION_LIMIT", "ORACLE_LIMIT"]


def _spoil(draw, rows):
    """rows, or rows with one token swapped for a hostile one."""
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, 2))
        row[col] = draw(st.sampled_from(IDS if col == 0 else HOSTILE))
    return rows


def _count(draw, true):
    """The true count, or one from -1 to 4 that may disagree with it."""
    return draw(st.just(true) | st.integers(-1, 4))


def _lines(head, rows):
    return [head] + [" ".join(row) for row in rows]


@st.composite
def instance_texts(draw):
    sizes = st.sampled_from(SIZES)
    rows = _spoil(draw, [[str(i), draw(sizes), draw(sizes)]
                         for i in range(draw(st.integers(0, 4)))])
    return "\n".join(_lines(f"items {_count(draw, len(rows))}", rows)) + "\n"


@st.composite
def packing_texts(draw):
    coords = st.sampled_from(COORDS)
    ids = st.lists(st.integers(0, 3), max_size=3, unique=True)
    bins = [_spoil(draw, [[str(i), draw(coords), draw(coords)] for i in draw(ids)])
            for _ in range(draw(st.integers(0, 2)))]
    lines = [f"bins {_count(draw, len(bins))}"]
    for i, rows in enumerate(bins):
        lines += _lines(f"bin {i}", rows)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv, stdin="", env=None):
    """main(argv)'s exit code and standard error, with stdin as standard
    input and env as the only solver variables set; fails the test if main
    runs past 10 s."""
    def stalled(signum, frame):
        pytest.fail(f"main{argv} ran past 10 s")

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                mock.patch.object(sys, "stdin", io.StringIO(stdin)), mock.patch.dict(os.environ):
            for name in SOLVER_VARIABLES:
                os.environ.pop(name, None)
            os.environ.update(env or {})
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _assert_documented(argv, code, err, context):
    assert code in (0, 1, 2, 3), (argv, context, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, context, err)


@given(instance=instance_texts(), packing=packing_texts())
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
def test_hostile_text_gets_an_exit_code(workdir, instance, packing):
    inst, pack, out = workdir / "a.inst", workdir / "a.pack", workdir / "out.pack"
    inst.write_text(instance, encoding="utf-8")
    pack.write_text(packing, encoding="utf-8")
    for argv in (["pack", "--in", str(inst), "--out", str(out)],
                 ["oracle", "--in", str(inst)],
                 ["validate", "--in", str(inst), "--packing", str(pack)],
                 ["render", "--in", str(inst), "--packing", str(pack), "--out", str(workdir / "svg")],
                 ["render", "--in", str(inst), "--packing", str(pack), "--out", "-"]):
        code, err = _run(argv)
        _assert_documented(argv, code, err, (instance, packing))


@st.composite
def gen_argvs(draw, workdir):
    """A gen argument vector: counts from -1 up, either mode, and --out and
    --witness each a file, `-`, or one file under two spellings; --witness
    may be absent."""
    inst, wit = str(workdir / "gen.inst"), str(workdir / "gen.wit")
    same = f"{workdir}/./gen.inst"  # pathlib would drop the "."
    argv = ["gen", "--n", str(draw(st.integers(-1, 6))), "--ell", str(draw(st.integers(-1, 3))),
            "--seed", str(draw(st.integers(0, 3))),
            "--mode", draw(st.sampled_from(["guillotine", "shrink"])),
            "--out", draw(st.sampled_from([inst, "-"]))]
    witness = draw(st.sampled_from([None, wit, "-", inst, same]))
    return argv if witness is None else argv + ["--witness", witness]


@given(data=st.data())
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
def test_gen_arguments_get_an_exit_code(workdir, data):
    argv = data.draw(gen_argvs(workdir))
    code, err = _run(argv)
    _assert_documented(argv, code, err, None)


@given(instance=instance_texts(), packing=packing_texts())
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
def test_stdin_input_gets_an_exit_code(workdir, instance, packing):
    inst, pack = workdir / "b.inst", workdir / "b.pack"
    inst.write_text(instance, encoding="utf-8")
    pack.write_text(packing, encoding="utf-8")
    for argv, stdin in ((["pack", "--in", "-", "--out", "-"], instance),
                        (["pack", "--in", str(inst), "--out", "-"], ""),
                        (["oracle", "--in", "-"], instance),
                        (["validate", "--in", "-", "--packing", str(pack)], instance),
                        (["validate", "--in", str(inst), "--packing", "-"], packing),
                        (["validate", "--in", "-", "--packing", "-"], instance)):
        code, err = _run(argv, stdin)
        _assert_documented(argv, code, err, (instance, packing))


@st.composite
def solve_argvs(draw, path):
    """A pack or oracle argument vector on the instance at path, with
    --k, --eps and --max-bins from -1 up or from EPSES, each maybe absent."""
    if draw(st.booleans()):
        argv = ["oracle", "--in", path]
        count = draw(st.none() | st.integers(-1, 5))
        return argv if count is None else argv + ["--max-bins", str(count)]
    argv = ["pack", "--in", path, "--out", "-"]
    k = draw(st.none() | st.integers(-1, 6))
    eps = draw(st.none() | st.sampled_from(EPSES))
    return (argv + ([] if k is None else ["--k", str(k)])
            + ([] if eps is None else ["--eps", eps]))


@st.composite
def solver_envs(draw):
    """Values for some of the solver's environment variables: EPSES for
    EPS_OPT1, INTS for the integers."""
    names = draw(st.lists(st.sampled_from(SOLVER_VARIABLES), unique=True, max_size=3))
    return {name: draw(st.sampled_from(EPSES if name == "EPS_OPT1" else INTS))
            for name in names}


@given(instance=instance_texts(), data=st.data())
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
def test_solve_options_and_environment_get_an_exit_code(workdir, instance, data):
    inst = workdir / "c.inst"
    inst.write_text(instance, encoding="utf-8")
    argv, env = data.draw(solve_argvs(str(inst))), data.draw(solver_envs())
    code, err = _run(argv, env=env)
    _assert_documented(argv, code, err, (instance, env))
