"""Tests for the one-shot reproduction report generator."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import report as report_mod


@pytest.fixture(scope="module")
def quick_report() -> str:
    # Shrink the quick profile further for test speed.
    small = dict(report_mod.QUICK)
    small.update(n_frames=60, iperf_s=0.1, wimax_frames=6,
                 snrs=[-3.0, 0.0, 6.0], sirs=[40.0, 8.0],
                 defense_trials=1, jam_probabilities=[1.0, 0.5])
    original = report_mod.QUICK
    report_mod.QUICK = small
    try:
        return report_mod.generate_report(quick=True)
    finally:
        report_mod.QUICK = original


class TestReport:
    def test_contains_every_paper_item(self, quick_report):
        for heading in ("Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
                        "Table 1", "Figs. 10/11", "Fig. 12",
                        "Countermeasures", "802.15.4"):
            assert heading in quick_report

    def test_defense_tournament_table(self, quick_report):
        assert "AUC (logistic)" in quick_report
        assert "AUC (xu-rule)" in quick_report
        assert "| always |" in quick_report
        assert "| p0.5 |" in quick_report

    def test_headline_numbers_present(self, quick_report):
        assert "2.640 µs" in quick_report    # T_resp(xcorr)
        assert "-51.0dB" in quick_report     # Table 1 cell
        assert "Mbps" in quick_report

    def test_renders_as_markdown_tables(self, quick_report):
        assert quick_report.count("|---") > 8
        assert quick_report.startswith("# Reproduction report")

    def test_cli_writes_file(self, tmp_path, capsys):
        small = dict(report_mod.QUICK)
        small.update(n_frames=40, iperf_s=0.08, wimax_frames=4,
                     snrs=[0.0], sirs=[40.0],
                     defense_trials=1, jam_probabilities=[1.0])
        original = report_mod.QUICK
        report_mod.QUICK = small
        try:
            out = tmp_path / "report.md"
            report_mod.main([str(out), "--quick"])
            assert out.exists()
            assert "Reproduction report" in out.read_text()
            assert "written" in capsys.readouterr().out
        finally:
            report_mod.QUICK = original


class TestResilienceFlags:
    def test_no_flag_means_default_policy(self):
        assert report_mod.resilience_from_args(["--quick"]) is None

    def test_flags_set_only_their_fields(self):
        config = report_mod.resilience_from_args(
            ["--quick", "--resume=j.jsonl", "--max-retries=5"])
        assert config.checkpoint_path == Path("j.jsonl")
        assert config.max_attempts == 5
        assert config.shard_deadline_s is None
        assert config.quarantine_limit == 0
        deadline = report_mod.resilience_from_args(["--shard-deadline=2.5"])
        assert deadline.shard_deadline_s == 2.5
        assert deadline.max_attempts == 3
