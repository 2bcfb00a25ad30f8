"""The ``repro-lint`` command line (lint / protocol / faults / rules)."""

import json

import pytest

from repro.analysis.cli import main
from repro.analysis.lint import RULES

BAD_SOURCE = "import time\n\n\ndef stamp():\n    return time.time()\n"
GOOD_SOURCE = "import time\n\n\ndef tick():\n    return time.monotonic()\n"


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "simulator"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(BAD_SOURCE)
    (pkg / "good.py").write_text(GOOD_SOURCE)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert run(["lint", tree / "src" / "repro" / "simulator" / "good.py"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tree, capsys):
        code = run(["lint", tree, "--root", tree])
        assert code == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out and "bad.py:5" in out

    def test_json_output(self, tree, capsys):
        run(["lint", tree, "--root", tree, "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["tool"] == "repro-lint"
        assert data["summary"]["findings"] == 1

    def test_select_skips_other_rules(self, tree):
        assert run(["lint", tree, "--select", "unseeded-rng"]) == 0

    def test_unknown_rule_is_usage_error(self, tree, capsys):
        assert run(["lint", tree, "--select", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path):
        assert run(["lint", tmp_path / "absent"]) == 2


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(["domans", "src"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand_exits_two(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["lint", "--bogus-flag"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "repro-lint" in capsys.readouterr().out


class TestProtocolCommand:
    def test_variant_n_ok(self, capsys):
        assert run(["protocol", "--variant", "n"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert run(["protocol", "--variant", "n", "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["variant"] == "N"
        assert report["ok"] is True and report["violations"] == []


class TestFaultsCommand:
    def test_table_lists_every_fault(self, capsys):
        assert run(["faults"]) == 0
        out = capsys.readouterr().out
        for fault in ("stuck-p-bit", "stuck-f-bit", "bitmap-corruption",
                      "abort-swap", "dram-transient"):
            assert fault in out

    def test_json_output(self, capsys):
        assert run(["faults", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(
            set(row) == {"fault", "scenario", "invariants", "note",
                         "expect_clean"}
            for row in data
        )

    def test_seu_rows_marked_expected(self, capsys):
        assert run(["faults"]) == 0
        out = capsys.readouterr().out
        assert "(expected: audit repairs)" in out

    def test_fail_on_violation_passes_when_recovery_clean(self):
        # every expect_clean scenario (all the abort landings) must
        # model-recover with zero violated invariants — the CI gate
        assert run(["faults", "--fail-on-violation"]) == 0

    def test_fail_on_violation_trips_on_dirty_clean_scenario(self, capsys,
                                                             monkeypatch):
        from repro.analysis import cli as cli_mod
        from repro.analysis.protocol import FaultImpact

        def fake_analysis():
            return [
                FaultImpact(fault="abort-swap", scenario="s",
                            invariants=("valid-copy",), note="n"),
            ]

        monkeypatch.setattr(
            cli_mod, "fault_invariant_analysis", fake_analysis
        )
        assert run(["faults", "--fail-on-violation"]) == 1
        assert "expected clean" in capsys.readouterr().out
        # without the flag the table still prints but exits 0
        assert run(["faults"]) == 0


class TestRulesCommand:
    def test_catalog_lists_every_rule(self, capsys):
        assert run(["rules"]) == 0
        out = capsys.readouterr().out
        for name in RULES:
            assert name in out
