"""Fuzzing the inputs the CLI reads: spec JSON, state lines, key lines.

Whatever the input, the command must either succeed (exit 0) or fail
with exit 1 and exactly one line on stderr, never a traceback.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundgroup import cli

CONFORMING_N4 = str(Path(__file__).resolve().parent.parent / "specs"
                    / "conforming_n4.json")

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)


@st.composite
def near_specs(draw):
    """Spec objects close to valid ones, with fields perturbed or gone."""
    m = draw(st.integers(-1, 4))
    delta = draw(st.integers(-1, 5))
    entry = (st.integers(-2, 17) | st.sampled_from(["0x3", "7", "zz", ""])
             | json_values)
    spec = {"n": draw(st.just(m * delta) | st.integers(-2, 70)
                      | json_values),
            "m": m, "delta": delta,
            "r": draw(st.integers(-2, 20) | json_values),
            "sboxes": draw(st.lists(st.lists(entry, max_size=17), max_size=6)
                           | json_values)}
    dropped = draw(st.sets(st.sampled_from(sorted(spec)), max_size=2))
    return {k: v for k, v in spec.items() if k not in dropped}


token = (st.integers(-20, 40).map(lambda v: format(v, "x") if v >= 0
                                  else "-" + format(-v, "x"))
         | st.sampled_from(["#", "0x1", "zz", "+3", "1_0", "ff" * 9])
         | st.text(max_size=4))
line_files = st.lists(st.lists(token, max_size=5).map(" ".join),
                      max_size=4).map("\n".join)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def assert_clean_exit(rc, err):
    assert rc == 0 or (rc == 1 and len(err.splitlines()) == 1), (rc, err)


@FUZZ
@given(body=near_specs().map(json.dumps) | json_values.map(json.dumps)
       | st.text(max_size=40))
def test_spec_files(workdir, body):
    path = workdir / "spec.json"
    path.write_text(body, encoding="utf-8")
    assert_clean_exit(*run_cli(["validate", "--spec", str(path)]))


@FUZZ
@given(states=line_files, keys=st.none() | line_files,
       inverse=st.booleans())
def test_state_and_key_lines(workdir, states, keys, inverse):
    state_path = workdir / "states.txt"
    state_path.write_text(states, encoding="utf-8")
    argv = ["encrypt", "--spec", CONFORMING_N4, "--input", str(state_path)]
    if keys is not None:
        key_path = workdir / "keys.txt"
        key_path.write_text(keys, encoding="utf-8")
        argv += ["--keys", str(key_path)]
    if inverse:
        argv.append("--inverse")
    assert_clean_exit(*run_cli(argv))
