"""Every pinned benchmark configuration, run in-process, still gives its
pinned exit code, claim counts and report bytes, so a change to the report
shows in the test suite and not only in a benchmark run.  The pins are read
from ``perfbench/pins.json``; the two full f4-nil runs are left to the
benchmark, as they take most of its time."""

import hashlib
import json
from pathlib import Path

import pytest

from liecenter import cli

PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text(encoding="utf-8")
)
SLOW = ("--algebra f4-nil --char 0", "--algebra f4-nil --char 3")


def test_pins_listed():
    assert set(SLOW) <= set(PINS) and len(PINS) - len(SLOW) >= 10


@pytest.mark.parametrize("config", sorted(set(PINS) - set(SLOW)))
def test_report_matches_pin(config, tmp_path, capsys):
    pin, out = PINS[config], tmp_path / "report.json"
    code = cli.main(["verify", *config.split(), "--format", "json", "--out", str(out)])
    capsys.readouterr()
    data = out.read_bytes()
    assert code == pin["exit"]
    assert json.loads(data)["summary"] == pin["summary"]
    assert hashlib.sha256(data).hexdigest() == pin["sha256"]
