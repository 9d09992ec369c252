"""Command-line front end: config round trips, commands, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from cgtns import hamiltonian
from cgtns.analysis import RunRecord, reduction_percentage
from cgtns.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    REFINE_STAGES,
    REFINERS,
    RunConfig,
    _resolve_ansatz,
    cmd_oracle,
    cmd_run,
    dump_config,
    main,
    parse_config,
)
from cgtns.correlators import AnsatzSpec, param_count
from cgtns.energy import EnergyEvaluator
from cgtns.fock import CsfBasis, build_csf_basis, enumerate_onvs
from cgtns.hamiltonian import (
    HamiltonianOperator,
    exact_diagonalize,
    orbital_occupations,
    parse_fcidump,
)
from cgtns.optimizer import PtConfig, run_stages, save_checkpoint

from oracles import exact_diagonalize_reference

FIXTURES = Path(__file__).parent.parent / "src" / "cgtns" / "fixtures"
H2 = str(FIXTURES / "h2.fcidump")
H4 = str(FIXTURES / "h4.fcidump")
H6 = str(FIXTURES / "h6.fcidump")


def quick_cfg(**overrides):
    base = dict(
        integrals=H2,
        replicas=2,
        sweeps=10,
        t_first=0.001,
        t_last=0.02,
        swap_interval=3,
        seed=11,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestConfigRoundTrip:
    def test_dump_parse_dump_is_byte_identical(self):
        cfg = quick_cfg(ansatz="3s[2s]", screen=0.001)
        text = dump_config(cfg)
        again = dump_config(parse_config(text))
        assert again == text

    def test_cli_dump_config_round_trip(self, capsys, tmp_path):
        assert main(["run", "--integrals", H2, "--dump-config"]) == EXIT_OK
        first = capsys.readouterr().out
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(first)
        assert main(["run", "--config", str(cfg_file), "--dump-config"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            parse_config("no_such_key = 1\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\nseed = 9\n")
        assert cfg.seed == 9

    def test_flag_overrides(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--integrals",
                    H2,
                    "--seed",
                    "123",
                    "--ansatz",
                    "2s/si",
                    "--window",
                    "0.1,1.9",
                    "--screen",
                    "0.01",
                    "--out",
                    "somewhere",
                    "--dump-config",
                ]
            )
            == EXIT_OK
        )
        text = capsys.readouterr().out
        assert "seed = 123" in text
        assert "ansatz = 2s/si" in text
        assert "window_lo = 0.1" in text
        assert "screen = 0.01" in text
        assert "out = somewhere" in text


class TestCount:
    def test_pair_row(self, capsys):
        assert main(["count", "2s", "24", "13108"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1200, 91%"

    def test_triple_row(self, capsys):
        assert main(["count", "3s", "24", "13108"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "20800, -59%"

    def test_selected_row(self, capsys):
        assert main(["count", "3s[2s]sel", "24", "13108", "--selected", "14"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "4480, 66%"

    @pytest.mark.parametrize(
        "args, line",
        [
            (["2s"], "1200, 91%"),
            (["2s/si"], "1104, 92%"),
            (["3s"], "20800, -59%"),
            (["3s/si"], "16192, -24%"),
            (["3s[2s]"], "20800, -59%"),
            (["3s/si[2s]"], "16192, -24%"),
            (["3s+[2s]"], "20800, -59%"),
            (["3s/si+[2s]"], "16192, -24%"),
            *(
                ([kind, "--selected", n], line)
                for kind in ("3s[2s]sel", "3s+[2s]sel")
                for n, line in (
                    ("10", "1760, 87%"), ("14", "4480, 66%"), ("18", "9120, 30%")
                )
            ),
        ],
    )
    def test_every_kind(self, capsys, args, line):
        # Every kind's row at M = 24 and the 13 108-dimensional reference.
        kind, *selected = args
        assert main(["count", kind, "24", "13108", *selected]) == EXIT_OK
        assert capsys.readouterr().out.strip() == line

    def test_unknown_kind_is_config_error(self, capsys):
        assert main(["count", "9s", "24", "13108"]) == EXIT_CONFIG

    @pytest.mark.parametrize("m", ["65", "100"])
    def test_more_sites_than_any_space_exits_3(self, capsys, m):
        # No space has more than 64 spin orbitals; the count is refused
        # before any tensor key is built.
        assert main(["count", "2s", m, "100"]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["2s", "1", "13108"],
            ["2s", "24", "0"],
            ["2s", "24", "-5"],
            ["3s[2s]sel", "24", "13108"],
            ["3s[2s]sel", "24", "13108", "--selected", "30"],
            ["3s[2s]sel", "24", "13108", "--selected", "0"],
            ["3s+[2s]sel", "24", "13108", "--selected", "-5"],
            # No tensor, and only frozen ones, as AmplitudeEngine refuses.
            ["3s/si", "2", "10"],
            ["3s/si[2s]", "2", "10"],
            # --selected has no effect on a kind that is not sel.
            ["2s", "24", "13108", "--selected", "5"],
            ["3s[2s]", "24", "13108", "--selected", "14"],
        ],
    )
    def test_bad_input_exits_2(self, capsys, args):
        assert main(["count", *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestOracle:
    def test_h2_dimensions_and_energy(self, capsys):
        assert main(["oracle", "--integrals", H2]) == EXIT_OK
        out = capsys.readouterr().out
        assert "determinants: 4" in out
        assert "csfs (2S=0): 3" in out
        prov = json.loads((FIXTURES / "provenance.json").read_text())
        e_fci = prov["systems"]["h2"]["e_fci"]
        assert f"{e_fci:.10f}"[:10] in out

    def test_zero_integrals_gives_core_energy(self, capsys, tmp_path):
        f = tmp_path / "zero.fcidump"
        f.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n-7.5 0 0 0 0\n")
        assert main(["oracle", "--integrals", str(f)]) == EXIT_OK
        assert "-7.5000000000" in capsys.readouterr().out

    def test_negative_ms2_takes_its_magnitude_as_spin2(self, tmp_path):
        # spin2 = auto falls back to |ms2|: the Ms = -1 triplet of H4 has
        # the energy of its Ms = +1 partner.
        energies = []
        for ms2 in (-2, 2):
            cfg = tmp_path / f"ms{ms2}.cfg"
            cfg.write_text(f"integrals = {H4}\nms2 = {ms2}\n")
            out = tmp_path / f"ms{ms2}.json"
            argv = ["oracle", "--config", str(cfg), "--oracle-out", str(out)]
            assert main(argv) == EXIT_OK
            doc = json.loads(out.read_text())
            assert doc["spin2"] == 2
            energies.append(doc["e0_csf_basis"])
        assert energies[0] == energies[1]

    def test_oversized_space_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(f"integrals = {H2}\ndense_limit = 2\n")
        assert main(["oracle", "--config", str(cfg)]) == EXIT_CAPACITY

    @pytest.mark.parametrize("norb", [33, 20000])
    def test_too_many_orbitals_exits_3(self, capsys, tmp_path, norb):
        # Refused by the parser, before it sizes the integral store.
        f = tmp_path / "wide.fcidump"
        f.write_text(f"&FCI NORB={norb},NELEC=2,MS2=0,\n&END\n-7.5 0 0 0 0\n")
        assert main(["oracle", "--integrals", str(f)]) == EXIT_CAPACITY
        assert f"NORB={norb} exceeds the 32-orbital limit" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["oracle", "--integrals", "/nonexistent.fcidump"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag",
        [["--out", "oo"], ["--seed", "3"], ["--ansatz", "3s"], ["--screen", "0.5"],
         ["--window", "0.1,0.2"]],
    )
    def test_run_only_flags_exit_2(self, tmp_path, monkeypatch, capsys, flag):
        # The oracle would ignore these, so it refuses them.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--integrals", H2, *flag])
        assert exc.value.code == EXIT_CONFIG
        assert capsys.readouterr().out == ""
        assert not any(tmp_path.iterdir())

    def test_unconverged_oracle_exits_4_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # With no residual bound the 400-determinant H6 solve can only stop
        # at its product bound, a numerical failure.
        monkeypatch.setattr(hamiltonian, "_RESIDUAL_TOL", 0.0)
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--integrals", H6, "--oracle-out", str(out)]) == EXIT_NUMERICAL
        assert "residual norm" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("target", [".", "out"])
    def test_oracle_out_onto_a_directory_exits_2(self, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        assert main(["oracle", "--integrals", H2, "--oracle-out", target]) == EXIT_CONFIG
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert not any((tmp_path / "out").iterdir())


class TestRun:
    def test_pair_run_writes_artifacts(self, tmp_path):
        cfg = quick_cfg(out=str(tmp_path / "run"))
        outdir = cmd_run(cfg)
        for name in ("config.txt", "trace.csv", "checkpoint.json",
                     "correlators.json", "record.json"):
            assert (outdir / name).exists()
        record = RunRecord.from_json((outdir / "record.json").read_text())
        assert record.kind == "2s"
        assert record.e_oracle is not None
        assert record.error_vs_oracle >= -1e-12

    def test_same_seed_identical_records(self, tmp_path):
        cfg_a = quick_cfg(out=str(tmp_path / "a"))
        cfg_b = quick_cfg(out=str(tmp_path / "b"))
        out_a = cmd_run(cfg_a)
        out_b = cmd_run(cfg_b)
        rec_a = (out_a / "record.json").read_text()
        rec_b = (out_b / "record.json").read_text()
        assert rec_a == rec_b
        assert (out_a / "trace.csv").read_text() == (out_b / "trace.csv").read_text()
        # Re-running into the same directory overwrites with identical bytes.
        cmd_run(quick_cfg(out=str(tmp_path / "a")))
        assert (out_a / "record.json").read_text() == rec_a

    def test_screened_run_completes(self, tmp_path):
        cfg = quick_cfg(screen=0.05, out=str(tmp_path / "scr"))
        outdir = cmd_run(cfg)
        record = RunRecord.from_json((outdir / "record.json").read_text())
        assert record.error_vs_oracle >= -1e-12

    def test_sum_hybrid_run(self, tmp_path):
        cfg = quick_cfg(ansatz="3s/si+[2s]", sweeps=6, out=str(tmp_path / "sum"))
        outdir = cmd_run(cfg)
        record = RunRecord.from_json((outdir / "record.json").read_text())
        assert record.kind == "3s/si+[2s]"
        assert record.n_active_parameters == param_count("3s/si", 4)
        assert record.error_vs_oracle >= -1e-12

    def test_sum_hybrid_subspace_refine_leaves_the_pair_stage(self, tmp_path):
        # The triple addend starts nonzero, so the tempering and the subspace
        # solves can move the state below the frozen pair stage's energy.
        cfg = quick_cfg(
            integrals=H4, ansatz="3s+[2s]", sweeps=5, seed=1, refine="subspace",
            out=str(tmp_path / "sum"),
        )
        outdir = cmd_run(cfg)
        record = RunRecord.from_json((outdir / "record.json").read_text())
        stage1 = json.loads((outdir / "stage1_checkpoint.json").read_text())
        assert record.final_energy < stage1["best_energy"] - 0.1
        assert record.error_vs_oracle >= -1e-12

    def test_pure_triple_warm_and_cold_inits(self, tmp_path):
        warm = quick_cfg(ansatz="3s/si", sweeps=6, out=str(tmp_path / "warm"))
        cold = quick_cfg(
            ansatz="3s/si", sweeps=6, init="cold", out=str(tmp_path / "cold")
        )
        rec_w = RunRecord.from_json((cmd_run(warm) / "record.json").read_text())
        rec_c = RunRecord.from_json((cmd_run(cold) / "record.json").read_text())
        for rec in (rec_w, rec_c):
            assert rec.kind == "3s/si"
            assert rec.error_vs_oracle >= -1e-12

    def test_full_window_selection_matches_unrestricted_hybrid(self, tmp_path):
        cfg = quick_cfg(
            ansatz="3s[2s]sel",
            window_lo=0.0,
            window_hi=2.0,
            sweeps=4,
            out=str(tmp_path / "sel"),
        )
        outdir = cmd_run(cfg)
        record = RunRecord.from_json((outdir / "record.json").read_text())
        assert record.n_active_parameters == param_count("3s[2s]", 4)

    def test_selected_run_diagonalizes_once(self, tmp_path, monkeypatch):
        # The oracle eigenpair also gives the occupations that pick the sites.
        from cgtns import cli

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return exact_diagonalize(*args, **kwargs)

        exact_diagonalize = cli.exact_diagonalize
        monkeypatch.setattr(cli, "exact_diagonalize", counted)
        cfg = quick_cfg(
            integrals=str(FIXTURES / "h4.fcidump"),
            ansatz="3s[2s]sel",
            sweeps=2,
            out=str(tmp_path / "sel"),
        )
        record = RunRecord.from_json((cmd_run(cfg) / "record.json").read_text())
        assert len(calls) == 1
        assert record.kind == "3s[2s]sel"
        assert record.error_vs_oracle >= -1e-12

    def test_hybrid_run_freezes_pairs_and_keeps_stage_artifacts(self, tmp_path):
        cfg = quick_cfg(ansatz="3s[2s]", sweeps=5, out=str(tmp_path / "hyb"))
        outdir = cmd_run(cfg)
        doc = json.loads((outdir / "correlators.json").read_text())
        assert doc["frozen"] == sorted(doc["pairs"])
        record = RunRecord.from_json((outdir / "record.json").read_text())
        assert record.n_frozen_parameters == 4 * len(doc["pairs"])
        assert (outdir / "stage1_trace.csv").exists()
        assert (outdir / "stage1_checkpoint.json").exists()

    @pytest.mark.parametrize("stage", list(REFINERS))
    def test_refinement_stage(self, tmp_path, stage):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(dump_config(quick_cfg(refine=stage)))
        outdir = tmp_path / "ref"
        assert main(["run", "--config", str(cfg_file), "--out", str(outdir)]) == EXIT_OK
        record = RunRecord.from_json((outdir / "record.json").read_text())
        checkpoint = json.loads((outdir / "checkpoint.json").read_text())
        assert record.final_energy <= checkpoint["best_energy"] + 1e-9
        assert record.final_energy >= record.e_oracle - 1e-9
        # Every refinement of the pair ansatz drives the small H2 problem
        # essentially to the oracle.
        assert record.error_vs_oracle < 1e-5

    @pytest.mark.parametrize("screen, built", [(0.0, [0.0]), (0.05, [0.05, 0.0])])
    def test_refinement_reuses_search_evaluator(self, tmp_path, monkeypatch, screen, built):
        # The refinement runs on the search's evaluator; only a screened run
        # builds a second, unscreened one for it.
        from cgtns.energy import EnergyEvaluator

        screens = []
        init = EnergyEvaluator.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            screens.append(self.screen)

        monkeypatch.setattr(EnergyEvaluator, "__init__", counted)
        cfg = quick_cfg(
            integrals=str(FIXTURES / "h4.fcidump"),
            sweeps=2,
            refine="subspace",
            screen=screen,
            out=str(tmp_path / "ref"),
        )
        cmd_run(cfg)
        assert screens == built

    @pytest.mark.parametrize("ansatz", ["3s", "3s[2s]"])
    @pytest.mark.parametrize("stage", ["reduced-gradient"])
    def test_pair_refinement_needs_active_pairs(self, tmp_path, capsys, stage, ansatz):
        # The pair-only reduced-gradient refiner is gone: asking for it on a
        # triple ansatz is refused as an unknown refinement before any
        # stage runs or any file is written.
        outdir = tmp_path / "out"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"integrals = {H2}\nansatz = {ansatz}\nrefine = {stage}\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(outdir)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{stage!r}" in err
        assert str(REFINE_STAGES) in err
        assert not outdir.exists()

    @pytest.mark.parametrize("ansatz", ["3s", "3s[2s]", "3s+[2s]"])
    def test_subspace_refines_triple_kinds(self, tmp_path, ansatz):
        cfg_file = tmp_path / "run.cfg"
        cfg = quick_cfg(ansatz=ansatz, sweeps=4, refine="subspace")
        cfg_file.write_text(dump_config(cfg))
        outdir = tmp_path / "ref"
        assert main(["run", "--config", str(cfg_file), "--out", str(outdir)]) == EXIT_OK
        record = RunRecord.from_json((outdir / "record.json").read_text())
        checkpoint = json.loads((outdir / "checkpoint.json").read_text())
        assert record.final_energy <= checkpoint["best_energy"]
        assert record.final_energy >= record.e_oracle - 1e-9

    def test_run_without_integrals_exits_2(self):
        assert main(["run"]) == EXIT_CONFIG

    def test_non_numeric_spin2_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"integrals = {H2}\nspin2 = two\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert "spin2" in capsys.readouterr().err

    def test_non_numeric_nat_occ_exits_2(self, tmp_path, capsys):
        # Every kind checks nat_occ, not only the selected ones.
        for ansatz in ("3s[2s]sel", "2s"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(
                f"integrals = {H2}\nansatz = {ansatz}\nnat_occ = 1.9,abc\n"
            )
            out = tmp_path / "out"
            argv = ["run", "--config", str(cfg_file), "--out", str(out)]
            assert main(argv) == EXIT_CONFIG
            assert "nat_occ" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "spins,key",
        [
            ("spin2 = 4", "spin2"),
            ("spin2 = 1", "spin2"),
            ("spin2 = 3", "spin2"),
            ("ms2 = 2\nspin2 = 0", "spin2"),
            ("ms2 = 4\nspin2 = 4", "ms2"),
            ("ms2 = 1", "ms2"),
            ("n_electrons = 5", "n_electrons"),
            ("n_electrons = -1", "n_electrons"),
        ],
    )
    def test_out_of_range_spin_numbers_exit_2(self, tmp_path, capsys, spins, key):
        # H2: two electrons in two orbitals admit 2S = 0 or 2 only.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"integrals = {H2}\n{spins}\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {key} = ")

    def test_out_of_range_nat_occ_exits_2(self, tmp_path, capsys):
        # Every kind checks nat_occ, not only the selected ones.
        for ansatz in ("3s[2s]sel", "2s"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(
                f"integrals = {H2}\nansatz = {ansatz}\nnat_occ = 2.5,0.1\n"
            )
            out = tmp_path / "out"
            argv = ["run", "--config", str(cfg_file), "--out", str(out)]
            assert main(argv) == EXIT_CONFIG
            assert "nat_occ" in capsys.readouterr().err
            assert not out.exists()

    def test_empty_window_exits_2_before_any_output(self, tmp_path, capsys):
        # Both H2 orbitals are singly occupied on average, outside [1.5, 1.98].
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"integrals = {H2}\nansatz = 3s[2s]sel\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_file), "--window", "1.5,1.98"]
        argv += ["--out", str(out)]
        with pytest.warns(UserWarning):
            assert main(argv) == EXIT_CONFIG
        assert "selected no sites" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ansatz", ["3s/si", "3s/si[2s]", "3s/si+[2s]"])
    def test_no_active_tensor_exits_2_before_any_output(self, tmp_path, capsys, ansatz):
        # One spatial orbital has no strict triple: 3s/si stores no tensor,
        # and the hybrids store frozen pairs only, as `cgtns count` reports.
        f = tmp_path / "one.fcidump"
        f.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n-1.2528 1 1 0 0\n")
        out = tmp_path / "out"
        argv = ["run", "--integrals", str(f), "--ansatz", ansatz, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "tensor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values",
        [
            "swap_interval = 0",
            "replicas = 0",
            "sweeps = -1",
            "step_size = 0",
            "target_acceptance = 1.5",
            "t_first = 0.1",
            "replicas = 2\nt_first = 0.01\nt_last = 0.01",
        ],
    )
    def test_bad_tempering_values_exit_2_before_any_output(self, tmp_path, values):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"integrals = {H2}\n{values}\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_file), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "values",
        [
            "step_size = inf",
            "t_last = inf",
            "t_first = nan",
            "window_hi = inf",
            "screen = nan",
            "screen = 1.5",
            "screen = -0.1",
            "sweeps = 0",
        ],
    )
    def test_non_finite_or_out_of_range_values_exit_2_before_any_output(
        self, tmp_path, values
    ):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"integrals = {H2}\n{values}\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_file), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_seed_exits_2_before_any_output(self, tmp_path, how):
        # SeedSequence refuses a negative seed; the tempering config refuses
        # it first, before the output directory is made.
        cfg_file = tmp_path / "run.cfg"
        seed = "seed = -1\n" if how == "config" else ""
        cfg_file.write_text(f"integrals = {H2}\nreplicas = 2\n{seed}")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_file), "--out", str(out)]
        if how == "flag":
            argv += ["--seed", "-1"]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    def test_h6_end_to_end(self, tmp_path):
        # Largest bundled fixture through the whole pipeline: 400
        # determinants, 175 singlet CSFs, 312 pair parameters.
        cfg = RunConfig(
            integrals=str(FIXTURES / "h6.fcidump"),
            replicas=2,
            sweeps=60,
            t_first=0.001,
            t_last=0.03,
            swap_interval=5,
            seed=6,
            out=str(tmp_path / "h6run"),
        )
        outdir = cmd_run(cfg)
        record = RunRecord.from_json((outdir / "record.json").read_text())
        assert record.reference_determinants == 400
        assert record.reference_csfs == 175
        assert record.n_active_parameters == param_count("2s", 12)
        assert record.error_vs_oracle >= -1e-12
        assert record.error_vs_oracle < 0.2  # seed 6 lands near 0.09 Ha


@pytest.fixture
def eigh_orders(monkeypatch):
    """Orders of the matrices handed to numpy's ``eigh``, as ``hamiltonian``
    calls it, from now on."""
    eigh, orders = np.linalg.eigh, []

    def recorded(a, *args, **kwargs):
        orders.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(hamiltonian.np.linalg, "eigh", recorded)
    return orders


class TestSmallEigensolves:
    """Every Rayleigh-Ritz ``eigh`` has order 25 at most, where LAPACK's
    ``dsyevd`` keeps to its QR path; the oracle's solves restart there."""

    def test_oracle(self, eigh_orders, h8_chain_fcidump):
        for path in (H6, h8_chain_fcidump):
            cmd_oracle(RunConfig(integrals=str(path)))
            assert max(eigh_orders) == 25
            eigh_orders.clear()

    def test_h6_hybrid_run(self, eigh_orders, tmp_path):
        cfg = quick_cfg(
            integrals=H6, ansatz="3s[2s]", replicas=2, sweeps=1, swap_interval=1,
            seed=1, out=str(tmp_path / "run"),
        )
        cmd_run(cfg)
        assert eigh_orders.count(25) > 0
        assert max(eigh_orders) == 25

    @pytest.mark.parametrize("kind", ["3s[2s]sel", "3s+[2s]sel"])
    @pytest.mark.parametrize(
        "path,window,sites",
        [(H4, (0.02, 1.98), 8), (H4, (0.5, 1.0), 4), (H6, (0.02, 1.98), 12)],
    )
    def test_sel_kinds_keep_their_sites(self, path, window, sites, kind):
        # The oracle vector's last bits differ from the unrestarted solve's
        # on H6; its occupations and the sites they select do not.
        cfg = RunConfig(integrals=path, ansatz=kind, window_lo=window[0], window_hi=window[1])
        ints = parse_fcidump(path)
        space = enumerate_onvs(2 * ints.m_orb, ints.n_electrons, ints.ms2 / 2.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        oracles = [exact_diagonalize(ham, basis), exact_diagonalize_reference(ham, basis)]
        specs = [_resolve_ansatz(cfg, ints, ham, basis, oracle) for oracle in oracles]
        assert specs[0].selected_sites == specs[1].selected_sites
        assert len(specs[0].selected_sites) == sites
        occ = [orbital_occupations(ham, vec @ basis.K) for _, vec in oracles]
        assert np.max(np.abs(np.subtract(*occ))) <= 1e-12


def h4_problem(spin2=0):
    ints = parse_fcidump(H4)
    space = enumerate_onvs(8, 4, 0.0)
    return build_csf_basis(space, spin2 / 2.0), HamiltonianOperator(ints, space)


def track_evaluators(monkeypatch):
    """Weak references to every EnergyEvaluator built from now on, and for
    each build, which of the earlier evaluators were still alive."""
    built, alive = [], []
    init = EnergyEvaluator.__init__

    def tracked(self, *args, **kwargs):
        alive.append([ref() is not None for ref in built])
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(EnergyEvaluator, "__init__", tracked)
    return alive


class TestStagePlan:
    """cmd_run writes each ensemble that optimizer.run_stages yields."""

    @pytest.mark.parametrize("ansatz", ["2s", "3s", "3s[2s]", "3s+[2s]"])
    def test_checkpoints_match_run_stages(self, tmp_path, ansatz):
        cfg = quick_cfg(integrals=H4, ansatz=ansatz, sweeps=3, seed=1)
        cfg.out = str(tmp_path / "run")
        outdir = cmd_run(cfg)
        basis, ham = h4_problem()
        config = PtConfig(
            t_first=0.001, t_last=0.02, n_replicas=2, sweeps=3, swap_interval=3, seed=1
        )
        names = ["checkpoint.json"]
        if ansatz != "2s":
            names.insert(0, "stage1_checkpoint.json")
        stages = list(run_stages(config, AnsatzSpec(ansatz), basis, ham))
        assert len(stages) == len(names)
        for name, ensemble in zip(names, stages):
            save_checkpoint(ensemble, tmp_path / name)
            assert (tmp_path / name).read_bytes() == (outdir / name).read_bytes()

    def test_pair_stage_evaluator_freed_before_stage_2(self, tmp_path, monkeypatch):
        alive = track_evaluators(monkeypatch)
        cfg = quick_cfg(integrals=H4, ansatz="3s[2s]", sweeps=2, out=str(tmp_path / "r"))
        cmd_run(cfg)
        assert alive == [[], [False]]

    def test_cold_pure_triples_run_one_stage(self, tmp_path, monkeypatch):
        alive = track_evaluators(monkeypatch)
        cfg = quick_cfg(integrals=H4, ansatz="3s", init="cold", sweeps=2)
        cfg.out = str(tmp_path / "cold")
        outdir = cmd_run(cfg)
        assert len(alive) == 1
        assert not (outdir / "stage1_trace.csv").exists()
        assert not (outdir / "stage1_checkpoint.json").exists()
        assert (outdir / "checkpoint.json").exists()

    def test_run_and_oracle_never_form_the_csf_overlap(self, tmp_path, monkeypatch):
        # The CSFs are orthonormal, so no command needs the dense K K^T.
        def forbidden(self):
            raise AssertionError("the dense CSF overlap was formed")

        monkeypatch.setattr(CsfBasis, "overlap", forbidden)
        cfg = quick_cfg(
            integrals=H4, ansatz="3s+[2s]", sweeps=2, seed=1, refine="subspace",
            out=str(tmp_path / "run"),
        )
        record = RunRecord.from_json((cmd_run(cfg) / "record.json").read_text())
        assert record.error_vs_oracle >= -1e-12
        assert cmd_oracle(RunConfig(integrals=H4))["csfs"] == 20

    def test_oracle_is_the_ground_state_of_the_target_spin(self, tmp_path):
        # The H4 ground state is a singlet; a triplet run is measured
        # against the lowest triplet, not against the determinant-basis E0.
        cfg = quick_cfg(integrals=H4, spin2="2", sweeps=2, out=str(tmp_path / "t"))
        record = RunRecord.from_json((cmd_run(cfg) / "record.json").read_text())
        basis, ham = h4_problem(spin2=2)
        e_triplet, _ = exact_diagonalize(ham, basis)
        e_singlet, _ = exact_diagonalize(ham)
        assert e_triplet > e_singlet + 0.1
        assert record.e_oracle == e_triplet
        assert record.error_vs_oracle == record.final_energy - e_triplet
        assert record.error_vs_oracle >= -1e-12


class TestCompare:
    def make_record(self, path, kind, energy, pct_params=(1200, 13108)):
        record = RunRecord(
            kind=kind,
            n_active_parameters=pct_params[0],
            n_frozen_parameters=0,
            reference_determinants=pct_params[1],
            reference_csfs=0,
            reduction_pct=reduction_percentage(*pct_params),
            final_energy=energy,
        )
        Path(path).write_text(record.to_json())

    def test_splitting_anchor(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.make_record(a, "2s", -1542.194072)
        self.make_record(b, "2s", -1542.104681)
        assert main(["compare", str(a), str(b)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "-0.089391 Ha" in out
        assert "-56.09 kcal/mol" in out

    def test_identical_runs(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self.make_record(a, "2s", -1.0)
        assert main(["compare", str(a), str(a)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.000000 Ha" in out
        assert "advisory" not in out

    def test_mismatched_reductions_advisory(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.make_record(a, "2s", -1542.194072, pct_params=(1200, 13108))
        self.make_record(b, "3s[2s]sel", -1542.194826, pct_params=(4480, 13108))
        assert main(["compare", str(a), str(b)]) == EXIT_OK
        assert "advisory" in capsys.readouterr().out

    def test_missing_record_exits_2(self, tmp_path):
        assert main(["compare", str(tmp_path / "no.json"), str(tmp_path / "no.json")]) == EXIT_CONFIG

    def compare_bad_record(self, tmp_path, capsys, content):
        """Compare a good record with ``content``; the bad one is an input error."""
        good, bad = tmp_path / "a.json", tmp_path / "b.json"
        self.make_record(good, "2s", -1.0)
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
        assert main(["compare", str(good), str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "content", ['{"format": "cgtns-run-record", "version": 1,', b'{"kind": "\xff"}']
    )
    def test_malformed_json_exits_2(self, tmp_path, capsys, content):
        assert "not a JSON document" in self.compare_bad_record(tmp_path, capsys, content)

    @pytest.mark.parametrize("key", ["final_energy", "kind"])
    def test_missing_key_exits_2(self, tmp_path, capsys, key):
        self.make_record(tmp_path / "full.json", "2s", -1.0)
        doc = json.loads((tmp_path / "full.json").read_text())
        del doc[key]
        err = self.compare_bad_record(tmp_path, capsys, json.dumps(doc))
        assert "malformed run record" in err and key in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("final_energy", "x"),
            ("final_energy", None),
            ("reduction_pct", None),
            ("reduction_pct", True),
            ("n_active_parameters", True),
            ("n_active_parameters", 1.5),
            ("reference_csfs", "3"),
            ("kind", 2),
            ("e_oracle", "y"),
            ("error_vs_oracle", "0.1"),
            ("seed", 1.0),
            ("seed", False),
        ],
    )
    def test_mistyped_value_exits_2(self, tmp_path, capsys, key, value):
        self.make_record(tmp_path / "full.json", "2s", -1.0)
        doc = json.loads((tmp_path / "full.json").read_text())
        doc[key] = value
        err = self.compare_bad_record(tmp_path, capsys, json.dumps(doc))
        assert "malformed run record" in err and key in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    @pytest.mark.parametrize("key", ["final_energy", "reduction_pct", "e_oracle"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        # Python's json reads these literals; a float field refuses them.
        self.make_record(tmp_path / "full.json", "2s", -1.0)
        doc = json.loads((tmp_path / "full.json").read_text())
        doc[key] = "@"
        content = json.dumps(doc).replace('"@"', value)
        err = self.compare_bad_record(tmp_path, capsys, content)
        assert "malformed run record" in err and key in err

    @pytest.mark.parametrize("key, value", [("final_energy", -2), ("e_oracle", None)])
    def test_integral_energy_and_null_oracle_are_valid(self, tmp_path, key, value):
        self.make_record(tmp_path / "a.json", "2s", -1.0)
        doc = json.loads((tmp_path / "a.json").read_text())
        doc[key] = value
        (tmp_path / "b.json").write_text(json.dumps(doc))
        argv = ["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize(
        "content", ['{"format": "cgtns-checkpoint", "version": 2}', "[1, 2]", "null"]
    )
    def test_other_json_document_exits_2(self, tmp_path, capsys, content):
        err = self.compare_bad_record(tmp_path, capsys, content)
        assert "unrecognized run-record document" in err


def run_fresh(code: str, *argv: str) -> list[str]:
    """Output lines of ``code`` run in a fresh interpreter on this checkout."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        check=True,
    )
    return done.stdout.splitlines()


def test_import_leaves_scipy_optimize_unloaded():
    # Only bfgs_refine needs scipy, and it imports scipy.optimize when called;
    # importing the package loads no scipy module at all.
    code = (
        "import sys, cgtns, cgtns.cli\n"
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    assert run_fresh(code) == ["[]"]


def test_subspace_run_leaves_scipy_linalg_unloaded(tmp_path):
    # K is numpy arrays and the tensor solves call numpy's eigh, so a run
    # with subspace refinement loads no scipy module, scipy.linalg included.
    # Nor does it load numpy.ma, which np.unique imports on numpy 2.x.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replicas = 2\nsweeps = 2\nseed = 1\nrefine = subspace\n")
    code = (
        "import sys, cgtns.cli\n"
        "status = cgtns.cli.main(sys.argv[1:])\n"
        "print(status, [m for m in sys.modules if m.startswith('scipy')],"
        " 'numpy.ma' in sys.modules)"
    )
    argv = ["run", "--config", str(cfg), "--integrals", H4, "--ansatz", "3s+[2s]",
            "--out", str(tmp_path / "run")]
    assert run_fresh(code, *argv)[-1] == "0 [] False"


def test_oracle_loads_no_scipy(tmp_path):
    # The oracle's Davidson products run on the numpy K and its eigenpairs
    # come from numpy's eigh; building K loads no numpy.ma either.
    code = (
        "import sys, cgtns.cli\n"
        "status = cgtns.cli.main(sys.argv[1:])\n"
        "print(status, [m for m in sys.modules if m.startswith('scipy')],"
        " 'numpy.ma' in sys.modules)"
    )
    argv = ["oracle", "--integrals", H4, "--oracle-out", str(tmp_path / "oracle.json")]
    assert run_fresh(code, *argv)[-1] == "0 [] False"


def test_bfgs_refine_loads_scipy_optimize(tmp_path):
    # refine = bfgs is the one path that needs scipy, and it imports
    # scipy.optimize when it runs.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replicas = 2\nsweeps = 2\nseed = 1\nrefine = bfgs\n")
    code = (
        "import sys\n"
        "import cgtns.cli\n"
        "print(cgtns.cli.main(sys.argv[1:]), 'scipy.optimize' in sys.modules)"
    )
    argv = ["run", "--config", str(cfg), "--integrals", H2,
            "--out", str(tmp_path / "run")]
    assert run_fresh(code, *argv)[-1] == "0 True"


def test_csf_hamiltonian_is_identical_across_blas_threads(h8_chain_fcidump):
    # K H K^T is formed by sparse-times-dense products, which use no BLAS,
    # so its bits do not depend on the thread count: H6 singlets, and the
    # H8 chain's 1008 doublets, a size at which BLAS products do change.
    src = str(Path(__file__).parent.parent / "src")
    code = (
        "import sys\n"
        "from cgtns.fock import build_csf_basis, enumerate_onvs\n"
        "from cgtns.hamiltonian import HamiltonianOperator, csf_hamiltonian, parse_fcidump\n"
        "ints = parse_fcidump(sys.argv[1])\n"
        "n, ms = int(sys.argv[2]), float(sys.argv[3])\n"
        "space = enumerate_onvs(2 * ints.m_orb, n, ms)\n"
        "A = csf_hamiltonian(build_csf_basis(space, ms), HamiltonianOperator(ints, space))\n"
        "sys.stdout.write(A.tobytes().hex())"
    )
    problems = ((FIXTURES / "h6.fcidump", "6", "0.0", 175), (h8_chain_fcidump, "5", "0.5", 1008))
    for path, n, ms, n_csf in problems:
        written = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", code, str(path), n, ms],
                env=env, capture_output=True, text=True, check=True,
            )
            written.append(done.stdout)
        assert len(written[0]) == 2 * 8 * n_csf * n_csf
        assert written[0] == written[1]


def oracle_bytes(fcidump: Path, out: Path, variable: str, value: str) -> bytes:
    """``oracle.json`` of ``cgtns oracle`` run in a fresh interpreter with
    one environment variable set."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, **{variable: value})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import sys, cgtns.cli; sys.exit(cgtns.cli.main())",
         "oracle", "--integrals", str(fcidump), "--oracle-out", str(out)],
        env=env, capture_output=True, check=True,
    )
    return out.read_bytes()


def test_oracle_is_identical_across_blas_threads(h8_chain_fcidump, tmp_path):
    # Every product of the eigensolve gives the same bits with one BLAS
    # thread and with two, so the oracle file does too.
    written = [
        oracle_bytes(h8_chain_fcidump, tmp_path / f"oracle_{threads}.json",
                     "OPENBLAS_NUM_THREADS", threads)
        for threads in ("1", "2")
    ]
    assert written[0] == written[1]
    assert json.loads(written[0])["csfs"] == 1008


def test_oracle_is_identical_across_blas_thread_timeouts(h8_chain_fcidump, tmp_path):
    # How long an idle OpenBLAS worker spins before it sleeps (2^28 cycles
    # by default, 2^4 as cgtns sets it) moves no bit of the oracle file.
    written = [
        oracle_bytes(h8_chain_fcidump, tmp_path / f"oracle_{timeout}.json",
                     "OPENBLAS_THREAD_TIMEOUT", timeout)
        for timeout in ("28", "4")
    ]
    assert written[0] == written[1]


def test_oracle_forms_no_dense_hamiltonian(h8_chain_fcidump, tmp_path, monkeypatch):
    # Both solves run on the matrix-free product: no call builds the dense
    # H, and the command's peak stays below a quarter of its n_det^2 floats.
    def forbidden(self):
        raise AssertionError("dense determinant H formed")

    monkeypatch.setattr(HamiltonianOperator, "matrix", forbidden)
    out = tmp_path / "oracle.json"
    tracemalloc.start()
    try:
        status = main(["oracle", "--integrals", str(h8_chain_fcidump), "--oracle-out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["determinants"] == 1568
    assert abs(doc["e0_determinant_basis"] - doc["e0_csf_basis"]) <= 1e-10
    assert peak < 1568**2 * 8 / 4
