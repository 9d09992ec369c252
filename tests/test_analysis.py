"""Accuracy measures, reduction accounting, and trace export."""

import numpy as np
import pytest

from cgtns.analysis import (
    HARTREE_TO_KCAL_PER_MOL,
    RunRecord,
    accuracy_measure,
    balanced_reduction_advisory,
    display_percentage,
    export_trace,
    read_trace_csv,
    reduction_percentage,
    reduction_report,
    spin_splitting,
)
from cgtns.errors import DimensionError
from cgtns.optimizer import TraceRow


class TestAccuracyMeasure:
    def test_selected_upgrade_lowers_energy(self):
        # Third-order correlators on top of the converged pair state.
        delta = accuracy_measure(-1542.194072, -1542.194826)
        assert delta == pytest.approx(-0.754e-3, abs=1e-9)

    def test_equal_inputs(self):
        assert accuracy_measure(-1.0, -1.0) == 0.0

    def test_full_hybrid_upgrade(self):
        delta = accuracy_measure(-1542.104681, -1542.125171)
        assert delta == pytest.approx(-0.02049, abs=1e-9)


class TestSpinSplitting:
    def test_reference_anchor(self):
        hartree, kcal = spin_splitting(-0.064683, 0.0)
        assert hartree == pytest.approx(-0.064683)
        assert kcal == pytest.approx(-40.59, abs=0.01)

    def test_pair_ansatz_anchor(self):
        _, kcal = spin_splitting(-0.089391, 0.0)
        assert kcal == pytest.approx(-56.09, abs=0.01)

    def test_zero(self):
        assert spin_splitting(0.0, 0.0) == (0.0, 0.0)

    def test_conversion_constant(self):
        assert HARTREE_TO_KCAL_PER_MOL == 627.5095


class TestReduction:
    def test_pair_counts_sextet_reference(self):
        assert reduction_report("2s", 24, 13108) == (1200, pytest.approx(90.8453), 91)
        assert reduction_report("2s/si", 24, 13108)[2] == 92

    def test_triple_counts_sextet_reference(self):
        n, pct, shown = reduction_report("3s", 24, 13108)
        assert n == 20800
        assert shown == -59
        n, pct, shown = reduction_report("3s[2s]sel", 24, 13108, n_selected=14)
        assert n == 4480
        assert shown == 66

    def test_doublet_reference(self):
        assert reduction_report("2s", 24, 98060)[2] == 99
        assert reduction_report("3s[2s]sel", 24, 98060, n_selected=18)[:1] == (9120,)
        assert reduction_report("3s[2s]sel", 24, 98060, n_selected=18)[2] == 91

    def test_sign_convention(self):
        # Negative percentage = the ansatz has more parameters than the
        # reference CI vector.
        assert reduction_percentage(200, 100) == -100.0
        assert reduction_percentage(50, 100) == 50.0

    def test_display_rounding_half_away_from_zero(self):
        assert display_percentage(90.5) == 91
        assert display_percentage(-58.5) == -59
        assert display_percentage(-23.4) == -23
        assert display_percentage(65.82) == 66

    def test_bad_reference(self):
        with pytest.raises(DimensionError):
            reduction_percentage(10, 0)


class TestAdvisory:
    def test_balanced(self):
        assert balanced_reduction_advisory(91.0, 92.0) is None

    def test_unbalanced(self):
        msg = balanced_reduction_advisory(91.0, 66.0)
        assert msg is not None and "25.0 points" in msg

    def test_threshold_boundary(self):
        assert balanced_reduction_advisory(80.0, 70.0) is None


def sample_trace(n_sweeps=3, n_replicas=2):
    rows = []
    rng = np.random.default_rng(5)
    for sweep in range(1, n_sweeps + 1):
        for r in range(n_replicas):
            rows.append(
                TraceRow(
                    sweep=sweep,
                    replica=r,
                    temperature=0.01 * (r + 1) * (1 + 1e-16),
                    energy=float(rng.standard_normal()),
                    acceptance=float(rng.uniform()),
                    swapped=bool(sweep % 2),
                )
            )
    return rows


class TestExportTrace:
    def test_row_count_single_sweep(self, tmp_path):
        rows = sample_trace(n_sweeps=1, n_replicas=4)
        path = tmp_path / "t.csv"
        export_trace(rows, path)
        assert len(read_trace_csv(path)) == 4

    def test_round_trip_identical_numbers(self, tmp_path):
        rows = sample_trace()
        path = tmp_path / "t.csv"
        export_trace(rows, path)
        back = read_trace_csv(path)
        for a, b in zip(rows, back):
            assert a.as_list() == b.as_list()

    def test_column_order_contract(self, tmp_path):
        path = tmp_path / "t.csv"
        export_trace(sample_trace(), path)
        header = path.read_text().splitlines()[0]
        assert header == "sweep,replica,temperature,energy,acceptance,swap"

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            export_trace([], tmp_path / "t.csv")


class TestRunRecord:
    def test_json_round_trip(self):
        record = RunRecord(
            kind="2s",
            n_active_parameters=40,
            n_frozen_parameters=0,
            reference_determinants=36,
            reference_csfs=20,
            reduction_pct=reduction_percentage(40, 36),
            final_energy=-2.17,
            trace_path="trace.csv",
            e_oracle=-2.175,
            error_vs_oracle=0.005,
            seed=7,
        )
        back = RunRecord.from_json(record.to_json())
        assert back == record
        assert back.reduction_pct_display == record.reduction_pct_display
