import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from liecenter import cli, invariants, liealg
from liecenter.exactalg import MR_BOUND, is_prime

from conftest import save_table, table_to_dict, with_bracket


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyExitCodes:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "g2-borel", "--char", "0",
            "--suites", "invariance,weights",
        )
        assert code == 0
        assert "[PASS] invariance" in out and "[PASS] weights" in out

    def test_char_two_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--algebra", "f4-nil", "--char", "2")
        assert code == 2
        assert "odd prime" in err

    def test_large_prime_char_is_decided_quickly(self):
        proc = subprocess.run(
            [sys.executable, "-m", "liecenter.cli", "verify", "--algebra", "g2-nil",
             "--char", "1000000000000000003", "--suites", "jacobi"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert "[PASS] jacobi" in proc.stdout

    @pytest.mark.parametrize("char", [cli.MAX_POWER_PRIME + 2, 1000000000000000003])
    @pytest.mark.parametrize("suites", ["pbw", "audit", None])
    def test_power_suites_refuse_primes_above_the_bound(self, capsys, char, suites):
        # 103 is the next prime above the bound; None selects every suite
        argv = ["verify", "--algebra", "g2-nil", "--char", str(char)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, *(["--suites", suites] if suites else []))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"up to {cli.MAX_POWER_PRIME}" in err
        assert (suites or "pbw, audit") in err

    def test_power_suites_accept_the_bound(self, capsys):
        assert is_prime(cli.MAX_POWER_PRIME)
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--char", str(cli.MAX_POWER_PRIME), "--suites", "pbw"
        )
        assert code == 0 and "[PASS] pbw" in out

    @pytest.mark.parametrize("command", ["verify", "invariants"])
    @pytest.mark.parametrize("selector", ["cn-borel", "cn-nil"])
    def test_n_above_the_bound_exits_2(self, capsys, command, selector):
        assert cli.MAX_N >= 7  # the cn-borel ranks of the measured matrix
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--algebra", selector, "--n", str(cli.MAX_N + 1))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"--n <= {cli.MAX_N}" in err

    def test_large_composite_char_rejected(self, capsys):
        # 19 digits: 1000000007 * 1000000009
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--char", "1000000016000000063"
        )
        assert code == 2
        assert "odd prime" in err

    def test_char_beyond_primality_bound_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--char", str(MR_BOUND + 2)
        )
        assert code == 2
        assert "decided only below" in err

    def test_excluded_characteristic(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--algebra", "g2-nil", "--char", "3")
        assert code == 2
        assert "excluded" in err

    def test_unknown_algebra(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--algebra", "e8-borel")
        assert code == 2

    def test_cn_needs_n(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--algebra", "cn-borel")
        assert code == 2
        assert "--n" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "g2-borel", "--suites", "nonsense"
        )
        assert code == 2

    def test_inapplicable_suite(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--suites", "weights"
        )
        assert code == 2
        assert "weights" in err

    def test_frobenius_needs_prime(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--char", "0", "--suites", "frobenius"
        )
        assert code == 2

    def test_cn_audit_char3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "cn-borel", "--n", "2", "--char", "3",
            "--suites", "audit",
        )
        assert code == 0
        assert "[PASS] audit" in out

    def test_cn_default_suites(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "cn-borel", "--n", "2", "--char", "3"
        )
        assert code == 0
        for suite in ("jacobi", "invariance", "weights", "frobenius", "pbw", "oracle", "audit"):
            assert f"[PASS] {suite}" in out

    def test_corrupted_table_fails(self, capsys, tmp_path, g2b):
        bad = with_bracket(g2b, "x1", "x3", "-3*x5")
        path = tmp_path / "bad.json"
        save_table(bad, str(path))
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", str(path),
            "--suites", "jacobi,invariance,triangle",
        )
        assert code == 1
        assert "FAILED" in out

    def test_flipped_x1x2_caught_by_invariance(self, capsys, tmp_path, g2b):
        # this particular flip leaves every Jacobi triple intact
        bad = with_bracket(g2b, "x1", "x2", "-2*x3")
        path = tmp_path / "bad.json"
        save_table(bad, str(path))
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", str(path),
            "--suites", "jacobi,invariance,triangle",
        )
        assert code == 1
        assert "[PASS] jacobi" in out
        assert "[FAIL] invariance" in out


    def test_cn_bracket_breaking_invariance_fails_a_claim(self, capsys, tmp_path, c2b):
        # the c_i are built from the basis labels alone, so a bracket that
        # breaks their invariance is a failed claim, not a configuration
        # error; this edit also leaves every Jacobi triple intact
        bad = with_bracket(c2b, "a1_2", "b2", "2*c1_2")
        path = tmp_path / "bad.json"
        save_table(bad, str(path))
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", str(path), "--suites", "jacobi,invariance",
        )
        assert code == 1
        assert "[PASS] jacobi" in out
        assert "[FAIL] invariance" in out


class TestTableFiles:
    """Suites follow a table's basis and Cartan labels, never its name, and
    malformed files are configuration errors."""

    def _write(self, tmp_path, data):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(data))
        return str(path)

    def _foreign(self):
        return {
            "name": "g2-fake",
            "basis": ["y1", "y2", "y3"],
            "cartan": [],
            "brackets": [{"lhs": "y1", "rhs": "y2", "value": [["1", "y3"]]}],
        }

    def test_catalog_basis_under_any_name(self, capsys, tmp_path, g2b):
        data = table_to_dict(g2b)
        data["name"] = "my-algebra"
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", self._write(tmp_path, data),
            "--suites", "invariance,triangle",
        )
        assert code == 0
        assert "[PASS] invariance" in out and "[PASS] triangle" in out

    @pytest.mark.parametrize(
        "char, edit, code, message",
        [
            # the G2 formulas have denominator 3 whatever the file excludes
            pytest.param(
                "3", lambda d: d.update(excluded_primes=[2]), 2, "excluded", id="g2-formulas"
            ),
            # so at characteristic 0 the Jacobian identities are checked mod 5, not 3
            pytest.param(
                "0", lambda d: d.update(excluded_primes=[2]), 0, "[PASS] jacobians",
                id="g2-formulas-char-0",
            ),
            pytest.param(
                "5", lambda d: d["brackets"][-1].update(value=[["1/5", "x6"]]), 2, "denominator",
                id="constant-denominator",
            ),
        ],
    )
    def test_characteristic_of_file(self, capsys, tmp_path, g2b, char, edit, code, message):
        data = table_to_dict(g2b)
        edit(data)
        got, out, err = run_cli(
            capsys, "verify", "--algebra", self._write(tmp_path, data), "--char", char
        )
        assert got == code
        assert message in out + err

    def test_catalog_name_on_foreign_basis(self, capsys, tmp_path):
        path = self._write(tmp_path, self._foreign())
        code, out, _ = run_cli(capsys, "verify", "--algebra", path)
        assert code == 0
        assert "[PASS] jacobi" in out and "total: 1 suites" in out
        code, _, err = run_cli(capsys, "verify", "--algebra", path, "--suites", "invariance")
        assert code == 2
        assert "invariance" in err

    def test_repeated_bracket_exits_2(self, capsys, tmp_path, g2b):
        # a wrong [h1, x1] stated before the real one must not pass unseen
        data = table_to_dict(g2b)
        data["brackets"].insert(0, {"lhs": "h1", "rhs": "x1", "value": [["5", "x1"]]})
        code, out, err = run_cli(
            capsys, "verify", "--algebra", self._write(tmp_path, data), "--suites", "jacobi"
        )
        assert (code, out) == (2, "")
        assert "'brackets' entry 1 repeats the bracket [h1,x1]" in err

    @pytest.mark.parametrize("coefficient", [0.1, True])
    def test_inexact_coefficient_exits_2(self, capsys, tmp_path, coefficient):
        # 0.1 arrives as 3602879701896397/36028797018963968, True as 1
        data = self._foreign()
        data["brackets"][0]["value"] = [[coefficient, "y3"]]
        code, out, err = run_cli(capsys, "verify", "--algebra", self._write(tmp_path, data))
        assert (code, out) == (2, "")
        assert "'brackets' entry 0 has coefficient" in err

    @pytest.mark.parametrize(
        "edit, field",
        [
            pytest.param(lambda d: d.pop("name"), "name", id="no-name"),
            pytest.param(lambda d: d.pop("basis"), "basis", id="no-basis"),
            pytest.param(lambda d: d.pop("cartan"), "cartan", id="no-cartan"),
            pytest.param(lambda d: d.pop("brackets"), "brackets", id="no-brackets"),
            pytest.param(lambda d: d.update(basis="y1,y2,y3"), "basis", id="basis-string"),
            pytest.param(lambda d: d.update(cartan="y1"), "cartan", id="cartan-string"),
            pytest.param(lambda d: d.update(brackets={}), "brackets", id="brackets-object"),
            pytest.param(lambda d: d.update(cartan=["zz"]), "cartan", id="cartan-unknown"),
            pytest.param(
                lambda d: d["brackets"][0].update(rhs="zz"), "brackets", id="bracket-key-unknown"
            ),
            pytest.param(
                lambda d: d["brackets"][0].update(value=[["1", "zz"]]), "brackets",
                id="bracket-value-unknown",
            ),
        ],
    )
    def test_malformed_file_is_config_error(self, capsys, tmp_path, edit, field):
        data = self._foreign()
        edit(data)
        code, _, err = run_cli(capsys, "verify", "--algebra", self._write(tmp_path, data))
        assert code == 2
        assert field in err


class TestMalformedInputs:
    """Inputs that must end in exit 2 and a message naming the field, never a
    traceback: exit 1 is reserved for a failed claim."""

    @pytest.mark.parametrize(
        "content, argv, field",
        [
            pytest.param(
                {"entries": [1]},
                ("verify", "--algebra", "g2-borel", "--suites", "jacobi", "--corrections"),
                "entries",
                id="correction-not-object",
            ),
            pytest.param(
                {"entries": [{"lhs": "x1", "rhs": "x2", "value": "x3 +"}]},
                ("verify", "--algebra", "g2-borel", "--suites", "jacobi", "--corrections"),
                "value",
                id="correction-dangling-sign",
            ),
            pytest.param(
                {"entries": [{"lhs": "x1", "rhs": "x2", "value": "y7"}]},
                ("verify", "--algebra", "f4-nil", "--suites", "jacobi", "--corrections"),
                "value",
                id="correction-unknown-variable",
            ),
            pytest.param([], ("report", "--in"), "object", id="report-not-object"),
            pytest.param(
                {"config": {}, "suites": [{"name": "s", "claims": [
                    {"claim_id": "c", "statement": "s", "status": "bogus"}]}]},
                ("report", "--in"),
                "status",
                id="report-unknown-status",
            ),
            pytest.param(
                {"config": [], "suites": []},
                ("report", "--format", "markdown", "--in"),
                "config",
                id="report-config-not-object",
            ),
        ],
    )
    def test_exit_2(self, capsys, tmp_path, content, argv, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, _, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert err.startswith("error: ") and field in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(invariants, "invariance_suite", broken)
        code, out, err = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--suites", "invariance"
        )
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: injected\n"


class TestClosedStdout:
    """A reader that closes standard output early, as ``| head -1`` does, is
    a configuration error like an unwritable --out, not an internal one."""

    def test_broken_pipe_exits_2(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "wb") as target:

            class ClosedPipe(io.StringIO):
                def write(self, text):
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = cli.main(["verify", "--algebra", "g2-nil", "--suites", "jacobi"])
            # the descriptor now points at the null device
            os.write(target.fileno(), b"lost")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "internal error" not in err
        assert (tmp_path / "stdout").read_bytes() == b""


class TestDeterminism:
    def test_json_byte_identical(self, capsys):
        args = ("verify", "--algebra", "g2-borel", "--char", "5",
                "--suites", "jacobi,invariance,weights", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        json.loads(out1)


class TestReports:
    def test_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--algebra", "g2-borel", "--char", "0",
            "--suites", "invariance,weights", "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        original = out_path.read_text()
        code, out, _ = run_cli(capsys, "report", "--in", str(out_path), "--format", "json")
        assert code == 0
        assert out == original

    def test_markdown_rendering(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        run_cli(
            capsys, "verify", "--algebra", "g2-borel", "--char", "0",
            "--suites", "weights", "--format", "json", "--out", str(out_path),
        )
        code, out, _ = run_cli(capsys, "report", "--in", str(out_path), "--format", "markdown")
        assert code == 0
        assert "## Suite `weights`" in out
        assert "derived-with-note" in out

    def test_config_echo_and_sha(self, capsys, tmp_path):
        corrections = tmp_path / "over.json"
        corrections.write_text(json.dumps({"entries": [
            {"lhs": "x1", "rhs": "x2", "value": "2*x3"}]}))
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "g2-borel", "--char", "0",
            "--suites", "jacobi", "--format", "json", "--corrections", str(corrections),
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["algebra"] == "g2-borel"
        assert data["corrections_sha256"] and len(data["corrections_sha256"]) == 64
        assert data["corrections_sha256"] == hashlib.sha256(corrections.read_bytes()).hexdigest()

    def test_corrections_audit_trail(self, capsys, tmp_path):
        # each overlaid entry reaches the report with the value it replaced,
        # and survives re-rendering; a report without an overlay has no key
        corrections, out_path = tmp_path / "over.json", tmp_path / "report.json"
        corrections.write_text(json.dumps({"entries": [
            {"lhs": "x1", "rhs": "x2", "value": "4*x3"},
            {"lhs": "x1", "rhs": "x2", "value": "2*x3"}]}))
        code, _, _ = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--suites", "jacobi",
            "--format", "json", "--corrections", str(corrections), "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["corrections"] == [
            {"lhs": "x1", "rhs": "x2", "value": "4*x3", "original": "2*x3"},
            {"lhs": "x1", "rhs": "x2", "value": "2*x3", "original": "4*x3"},
        ]
        code, out, _ = run_cli(capsys, "report", "--in", str(out_path), "--format", "json")
        assert (code, out) == (0, out_path.read_text())
        code, out, _ = run_cli(capsys, "report", "--in", str(out_path), "--format", "markdown")
        assert "- correction: `[x1, x2] = 4*x3`, was `2*x3`" in out
        assert "- correction: `[x1, x2] = 2*x3`, was `4*x3`" in out
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--suites", "jacobi", "--format", "json"
        )
        assert "corrections" not in json.loads(out)

    @pytest.mark.parametrize(
        "corrections",
        [{"lhs": "x1"}, "x1", {"lhs": "x1", "rhs": "x2", "value": "2*x3", "original": 0}],
    )
    def test_malformed_corrections_in_report_exits_2(self, capsys, tmp_path, corrections):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(
            {"config": {}, "suites": [], "corrections": [corrections]}
        ))
        code, out, err = run_cli(capsys, "report", "--in", str(path))
        assert (code, out) == (2, "")
        assert "'corrections'" in err

    def test_malformed_corrections(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "g2-borel", "--corrections", str(bad)
        )
        assert code == 2

    def test_missing_report_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", "--in", str(tmp_path / "nope.json"))
        assert code == 2


class TestConfigDescribesTheRun:
    """The report's config records what ran, not what was typed."""

    def test_suites_in_run_order_once_each(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--suites", "invariance,jacobi,jacobi",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["suites"] == ["jacobi", "invariance"]
        assert [suite["name"] for suite in data["suites"]] == ["jacobi", "invariance"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--algebra", "g2-nil", "--suites", "jacobi", "--n", "4"),
            ("verify", "--algebra", "f4-borel", "--suites", "jacobi", "--n", "1"),
            ("invariants", "--algebra", "g2-borel", "--n", "2"),
        ],
    )
    def test_n_outside_cn_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "--n" in err and out == ""

    def test_n_with_a_table_file_exits_2(self, capsys, tmp_path, g2b):
        path = tmp_path / "g2.json"
        save_table(g2b, str(path))
        code, _, err = run_cli(
            capsys, "verify", "--algebra", str(path), "--suites", "jacobi", "--n", "2"
        )
        assert code == 2
        assert "--n" in err


class TestUnwritableOutput:
    """An --out path that cannot be written is a configuration error (exit 2,
    one error line naming the path), not an internal one."""

    @pytest.mark.parametrize("fmt", ["json", "summary"])
    def test_verify(self, capsys, tmp_path, fmt):
        out_path = tmp_path / "missing" / "report.json"
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--suites", "jacobi",
            "--format", fmt, "--out", str(out_path),
        )
        assert code == 2
        assert err.startswith("error: ") and str(out_path) in err
        assert "internal error" not in err

    def test_verify_fails_before_any_suite_runs(self, capsys, tmp_path, monkeypatch):
        # a suite that runs would crash with exit 3; the path is checked first
        liealg.g2_borel()  # the cached table is built, and validated, before the patch

        def crash(t):
            raise RuntimeError("the jacobi suite ran")

        monkeypatch.setattr(liealg, "jacobi_check", crash)
        missing = tmp_path / "missing" / "report.json"
        for out_path, reason in ((missing, "[Errno 2] No such file or directory"),
                                 (tmp_path, "[Errno 21] Is a directory")):
            code, out, err = run_cli(
                capsys, "verify", "--algebra", "g2-nil", "--suites", "jacobi",
                "--format", "json", "--out", str(out_path),
            )
            assert code == 2 and out == ""
            assert err == f"error: cannot write report {out_path}: {reason}: '{out_path}'\n"

    def test_report(self, capsys, tmp_path):
        in_path = tmp_path / "report.json"
        run_cli(
            capsys, "verify", "--algebra", "g2-nil", "--suites", "jacobi",
            "--format", "json", "--out", str(in_path),
        )
        code, _, err = run_cli(capsys, "report", "--in", str(in_path), "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path) in err


class TestMaxDegree:
    """--max-degree is checked once, by argparse, for every suite and command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--algebra", "g2-nil", "--suites", "audit", "--max-degree", "0"),
            ("verify", "--algebra", "g2-nil", "--suites", "jacobi", "--max-degree", "-3"),
            ("invariants", "--algebra", "g2-nil", "--max-degree", "-3"),
            ("invariants", "--algebra", "g2-nil", "--max-degree", "two"),
        ],
    )
    def test_non_positive_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "--max-degree" in capsys.readouterr().err


def record_suites(monkeypatch, calls, **replaced):
    """Make every suite callable of ``verify`` record its name in ``calls``
    when it runs; a suite named in ``replaced`` runs the callable given there."""
    real = cli._suite_callables

    def recorded(t, args):
        def run(name, fn):
            def suite():
                calls.append(name)
                return replaced.get(name, fn)()

            return suite

        return {name: run(name, fn) for name, fn in real(t, args).items()}

    monkeypatch.setattr(cli, "_suite_callables", recorded)


def capped():
    raise invariants.OracleCapExceeded("oracle system exceeds 10 matrix entries")


class TestOracleRunsFirst:
    def test_cap_exits_2_before_any_other_suite(self, capsys, monkeypatch, tmp_path):
        calls = []
        record_suites(monkeypatch, calls, oracle=capped)
        out = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "verify", "--algebra", "g2-nil", "--out", str(out))
        assert code == 2
        assert calls == ["oracle"]
        assert "error: oracle system exceeds 10 matrix entries" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suites,ran",
        [(None, ["oracle", "audit"]), ("jacobi,invariance,pbw,audit", ["audit"])],
    )
    def test_audit_cap_exits_2_before_any_other_suite(
        self, capsys, monkeypatch, tmp_path, suites, ran
    ):
        # the audit solves oracle systems of its own, so it runs next
        calls = []
        record_suites(monkeypatch, calls, audit=capped)
        out = tmp_path / "report.json"
        argv = ["verify", "--algebra", "g2-nil", "--out", str(out)]
        code, _, err = run_cli(capsys, *argv, *(["--suites", suites] if suites else []))
        assert code == 2
        assert calls == ran
        assert "error: oracle system exceeds 10 matrix entries" in err
        assert not out.exists()

    def test_report_keeps_the_suite_order(self, capsys, monkeypatch):
        calls = []
        record_suites(monkeypatch, calls)
        code, out, _ = run_cli(capsys, "verify", "--algebra", "g2-borel", "--format", "json")
        assert code == 0
        ran = json.loads(out)["config"]["suites"]
        assert calls[:2] == ["oracle", "audit"]
        assert sorted(calls) == sorted(ran)
        assert ran == [n for n in cli.SUITE_ORDER if n in ran]
        assert [s["name"] for s in json.loads(out)["suites"]] == ran


class TestInvariantsCommand:
    def test_g2_listing(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--algebra", "g2-nil", "--char", "0")
        assert code == 0
        assert "c1 (degree 1) = x6" in out
        assert "c2 (degree 2) = 3*x1*x6 - 3*x2*x5 + x3^2" in out

    def test_cn_listing(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--algebra", "cn-borel", "--n", "3")
        assert code == 0
        for i, d in ((1, 1), (2, 2), (3, 3)):
            assert f"c{i} (degree {d})" in out

    def test_oracle_dims(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", "--algebra", "f4-nil", "--max-degree", "2", "--oracle"
        )
        assert code == 0
        assert "degree 1: invariant dimension 1" in out
        assert "degree 2: invariant dimension 2" in out

    def test_oracle_cap_keeps_solved_degrees(self, capsys):
        # degree 5 over the f4 Borel algebra exceeds the solver cap
        code, out, err = run_cli(
            capsys, "invariants", "--algebra", "f4-borel", "--max-degree", "5", "--oracle"
        )
        assert code == 2
        assert "exceeds" in err
        assert "degree 3: invariant dimension 2" in out
        assert "degree 4: invariant dimension 4, generated dimension 4, equal" in out


class TestConsoleScript:
    def test_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "liecenter.cli", "verify", "--algebra", "g2-nil",
             "--char", "0", "--suites", "jacobi"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "[PASS] jacobi" in proc.stdout

    def test_plain_verify_leaves_openssl_unloaded(self):
        # hashlib maps OpenSSL's libcrypto into the process; only a
        # --corrections overlay is hashed, so a plain run must not import it
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from liecenter.cli import main\n"
            "code = main(['verify', '--algebra', 'g2-nil'])\n"
            "print(sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before)))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
