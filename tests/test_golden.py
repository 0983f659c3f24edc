"""Pinned report bodies: every byte of stdout, in text and JSON.

The files under tests/golden/ are the reports as the CLI printed them
before the report code was restructured; any change to a report body
shows up here as a diff.  Spec paths are relative to the repository
root because the header echoes them.
"""

from pathlib import Path

import pytest

from roundgroup import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

REPORTS = [
    ("verdict", "conforming_n8", ["--seed", "20260823"], 0),
    ("verdict", "identity_r0_n8", [], 2),
    ("scan-blocks", "identity_r0_n4", [], 2),
    ("types", "identity_r0_n4", [], 0),
    ("order", "conforming_n4", [], 0),
    ("validate", "gost_frame_n32", [], 0),
    ("verdict", "conforming_n4", ["--budget", "0"], 3),
    ("verdict", "conforming_n8", ["--budget", "0"], 0),
    ("order", "identity_r0_n4", [], 0),
]


def golden(command, spec, extra, suffix):
    """The pinned body; a --budget run's file name carries the budget."""
    tag = (f"_budget{extra[extra.index('--budget') + 1]}"
           if "--budget" in extra else "")
    return (GOLDEN / f"{command}_{spec}{tag}.{suffix}").read_text()


@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("command,spec,extra,code", REPORTS)
def test_report_body_pinned(command, spec, extra, code, fmt, suffix,
                            monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    rc = cli.main([command, "--spec", f"specs/{spec}.json",
                   "--format", fmt] + extra)
    out = capsys.readouterr().out
    assert rc == code
    assert out == golden(command, spec, extra, suffix)
