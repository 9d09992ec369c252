"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Source-table percentage cells that are arithmetically inconsistent
in the original tables (the printed percentage does not follow from the
printed parameter count and reference dimension under the documented
formula) are pinned as documented errata rather than asserted blindly; see
README "Known source-table errata".
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cgtns.analysis import reduction_report, spin_splitting
from cgtns.correlators import AnsatzSpec, CorrelatorSet, param_count
from cgtns.energy import EnergyEvaluator, amplitude_space_gradient
from cgtns.fock import build_csf_basis, enumerate_onvs, s2_apply
from cgtns.hamiltonian import (
    HamiltonianOperator,
    exact_diagonalize,
    parse_fcidump,
)
from cgtns.optimizer import (
    PtConfig,
    ReplicaState,
    cold_start,
    continue_parallel_tempering,
    load_checkpoint,
    metropolis_sweep,
    run_parallel_tempering,
    save_checkpoint,
    swap_probability,
    temperature_ladder,
    warm_start_triples_from_pairs,
)

FIXTURES = Path(__file__).parent.parent / "src" / "cgtns" / "fixtures"


def report(criterion, message, started=None, budget=None):
    note = ""
    if started is not None:
        elapsed = time.perf_counter() - started
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {criterion} took {elapsed:.1f}s, budget {budget}s"
            )
        note = f" [{elapsed:.2f}s]"
    print(f"\nACCEPTANCE CRITERION {criterion}: PASS — {message}{note}")


@pytest.fixture(scope="module")
def problems():
    out = {}
    for name, m, n in (("h2", 4, 2), ("h4", 8, 4), ("h6", 12, 6)):
        ints = parse_fcidump(FIXTURES / f"{name}.fcidump")
        space = enumerate_onvs(m, n, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        out[name] = (space, basis, ham)
    return out


@pytest.fixture(scope="module")
def provenance():
    return json.loads((FIXTURES / "provenance.json").read_text())


def test_criterion_01_parameter_count_anchors():
    started = time.perf_counter()
    assert param_count("2s", 24) == 1200
    assert param_count("2s/si", 24) == 1104
    assert param_count("3s", 24) == 20800
    assert param_count("3s/si", 24) == 16192
    assert param_count("3s[2s]sel", 24, n_selected=10) == 1760
    assert param_count("3s[2s]sel", 24, n_selected=14) == 4480
    report(1, "pair/triple counts 1200, 1104, 20800, 16192; selected "
              "self-interaction-inclusive counts 1760 (10 sites), 4480 (14 sites)",
           started, budget=1.0)


# (kind, n_selected, published parameter count, published percentage)
SEXTET_TABLE = [
    ("2s", None, 1200, 91),
    ("2s/si", None, 1104, 92),
    ("3s/si", None, 16192, -29),
    ("3s", None, 20800, -59),
    ("3s/si[2s]", None, 16192, -29),
    ("3s/si+[2s]", None, 16192, -29),
    ("3s[2s]", None, 20800, -59),
    ("3s+[2s]", None, 20800, -59),
    ("3s[2s]sel", 14, 4480, 66),
    ("3s+[2s]sel", 14, 4480, 66),
]
DOUBLET_TABLE = [
    ("2s", None, 1200, 99),
    ("3s/si", None, 16192, 85),
    ("3s", None, 20800, 80),
    ("3s/si[2s]", None, 16192, 85),
    ("3s[2s]", None, 20800, 80),
    ("3s[2s]sel", 18, 9120, 91),
    ("3s+[2s]sel", 18, 9120, 91),
]
# Cells whose printed percentage contradicts the printed parameter count and
# reference dimension: 16192/13108 gives -24, not -29; 16192/98060 gives 83,
# not 85; 20800/98060 gives 79, not 80.  Documented errata.
ERRATA = {
    (16192, 13108): (-29, -24),
    (16192, 98060): (85, 83),
    (20800, 98060): (80, 79),
}


def independent_percentage(params, dim):
    """Second, exact-rational implementation of the reduction formula."""
    return float(100 * (1 - Fraction(params, dim)))


def test_criterion_02_reduction_percentages():
    started = time.perf_counter()
    checked = errata_hit = 0
    for dim, table in ((13108, SEXTET_TABLE), (98060, DOUBLET_TABLE)):
        for kind, n_selected, published_params, published_pct in table:
            n, pct, shown = reduction_report(kind, 24, dim, n_selected=n_selected)
            assert n == published_params
            assert pct == pytest.approx(independent_percentage(n, dim), abs=1e-12)
            key = (published_params, dim)
            if key in ERRATA:
                printed, computed = ERRATA[key]
                assert published_pct == printed
                assert shown == computed
                assert shown != printed
                assert abs(pct - printed) < 6.0
                errata_hit += 1
            else:
                assert shown == published_pct
            checked += 1
    assert checked == len(SEXTET_TABLE) + len(DOUBLET_TABLE)
    report(2, f"all {checked} parameter cells and every arithmetically "
              f"consistent percentage cell reproduced; {errata_hit} cells "
              "pinned as documented source-table errata (printed -29/85/80 "
              "vs computed -24/83/79)", started, budget=1.0)


def test_criterion_03_unit_conversion_anchors():
    _, kcal = spin_splitting(-0.064683, 0.0)
    assert kcal == pytest.approx(-40.59, abs=0.01)
    _, kcal = spin_splitting(-0.089391, 0.0)
    assert kcal == pytest.approx(-56.09, abs=0.01)
    report(3, "-0.064683 Ha -> -40.59 kcal/mol and -0.089391 Ha -> -56.09 "
              "kcal/mol within 0.01")


def test_criterion_04_oracle_equivalence(problems, provenance):
    started = time.perf_counter()
    for name, (space, basis, ham) in problems.items():
        e_det, _ = exact_diagonalize(ham)
        e_csf, _ = exact_diagonalize(ham, basis)
        assert abs(e_det - e_csf) <= 1e-10
        assert e_det == pytest.approx(
            provenance["systems"][name]["e_fci"], abs=1e-8
        )
        for p in range(basis.n_csfs):
            row = basis.row(p)
            resid = s2_apply(space, row) - basis.s * (basis.s + 1) * row
            assert np.max(np.abs(resid)) <= 1e-10
    report(4, "determinant and CSF diagonalization agree to 1e-10 on "
              "h2/h4/h6; all CSF rows are spin eigenvectors to 1e-10; "
              "energies match the committed independent oracle", started, budget=30.0)


def test_criterion_05_variational_bound(problems):
    started = time.perf_counter()
    rng = np.random.default_rng(515)
    total = 0
    for name, (space, basis, ham) in problems.items():
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, space.m, basis, ham)
        e0_csf, _ = exact_diagonalize(ham, basis)
        x_id = ev.flatten(CorrelatorSet.identity(spec, space.m))
        for _ in range(1000):
            x = x_id + rng.uniform(-0.5, 0.5, x_id.size)
            e = ev.energy(x).e
            assert e >= e0_csf - 1e-12
            total += 1
    report(5, f"{total} random correlator sets (1000 per fixture) never "
              "undercut the same-space oracle energy minus 1e-12", started, budget=120.0)


def test_criterion_06_gradient_suite(problems):
    # 1e-6 relative agreement wherever the finite-difference oracle can
    # resolve it; deviations inside the oracle's own roundoff floor
    # (~1e-10 absolute for Hartree-scale energies) are accepted as oracle
    # noise, not gradient error.
    from oracles import fd_gradient, fd_noise_bound

    started = time.perf_counter()
    kinds = ["2s", "2s/si", "3s", "3s/si", "3s[2s]", "3s+[2s]", "3s[2s]sel"]
    rng = np.random.default_rng(66)
    probes = 0
    for name in ("h2", "h4"):
        space, basis, ham = problems[name]
        m = space.m
        for kind in kinds:
            spec = (
                AnsatzSpec(kind, selected_sites=tuple(range(m // 2)))
                if kind.endswith("sel")
                else AnsatzSpec(kind)
            )
            ev = EnergyEvaluator(spec, m, basis, ham)
            x_id = ev.flatten(CorrelatorSet.identity(spec, m))
            for _ in range(8):
                x = x_id.copy()
                x[ev.engine.active_indices] += rng.uniform(
                    -0.4, 0.4, len(ev.engine.active_indices)
                )
                grad = ev.gradient(x)
                row = int(rng.integers(len(ev.engine.active_indices)))
                idx = ev.engine.active_indices[row]
                e_ref = ev.energy(x).e
                fd = fd_gradient(lambda xv: ev.energy(xv).e, x, idx)
                tolerance = max(
                    1e-6 * max(abs(grad[row]), abs(fd)), fd_noise_bound(e_ref)
                )
                assert abs(grad[row] - fd) <= tolerance
                probes += 1
    assert probes >= 100
    for name in ("h2", "h4"):
        space, basis, ham = problems[name]
        _, vec = exact_diagonalize(ham)
        assert np.max(np.abs(amplitude_space_gradient(vec, basis, ham))) <= 1e-8
    report(6, f"{probes} random finite-difference probes within 1e-6 "
              "relative; gradient at the injected oracle eigenvector "
              "below 1e-8 on h2 and h4", started, budget=120.0)


def test_criterion_07_estimator_identity(problems):
    rng = np.random.default_rng(77)
    trials = 0
    for name in ("h2", "h4"):
        space, basis, ham = problems[name]
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, space.m, basis, ham)
        x_id = ev.flatten(CorrelatorSet.identity(spec, space.m))
        for _ in range(50):
            x = x_id + rng.uniform(-0.4, 0.4, x_id.size)
            S = ev.weights(x)
            num = den = 0.0
            for r in range(basis.n_csfs):
                if S[r] == 0.0:
                    continue
                e_r = ev.estimator(r, x)
                num += S[r] ** 2 * e_r
                den += S[r] ** 2
            assert num / den == pytest.approx(ev.energy(x).e, abs=1e-10)
            trials += 1
    assert trials == 100
    report(7, "squared-weight average of per-CSF estimators equals the "
              "Rayleigh quotient to 1e-10 in all 100 trials")


def test_criterion_08_parallel_tempering_end_to_end(problems):
    started = time.perf_counter()
    # Pair ansatz on the smallest fixture reaches the oracle.
    space, basis, ham = problems["h2"]
    e0, _ = exact_diagonalize(ham)
    spec2 = AnsatzSpec("2s")
    config = PtConfig(
        t_first=0.0005, t_last=0.05, n_replicas=3, sweeps=200,
        swap_interval=5, step_size=0.1, seed=7,
    )
    ensemble = run_parallel_tempering(
        config, spec2, basis, ham, cold_start(spec2, 4, np.random.default_rng(7))
    )
    gap_h2 = ensemble.best_energy - e0
    assert -1e-12 <= gap_h2 <= 5e-3

    # Triples (self-interaction inclusive) on h4 beat the pair baseline.
    space, basis, ham = problems["h4"]
    e0_h4, _ = exact_diagonalize(ham)
    stage1_cfg = PtConfig(
        t_first=0.0005, t_last=0.05, n_replicas=4, sweeps=250,
        swap_interval=5, step_size=0.1, seed=2024,
    )
    stage1 = run_parallel_tempering(
        stage1_cfg, spec2, basis, ham,
        cold_start(spec2, 8, np.random.default_rng(2024)),
    )
    spec3 = AnsatzSpec("3s")
    warm = warm_start_triples_from_pairs(spec3, stage1.best_params())
    stage2_cfg = PtConfig(
        t_first=1e-4, t_last=5e-3, n_replicas=4, sweeps=120,
        swap_interval=5, step_size=0.01, seed=2025,
    )
    stage2 = run_parallel_tempering(stage2_cfg, spec3, basis, ham, warm)
    improvement = stage1.best_energy - stage2.best_energy
    assert stage2.best_energy >= e0_h4 - 1e-12
    assert improvement >= 1e-4
    report(8, f"h2 pair run within {gap_h2 * 1e3:.3f} mHa of the oracle "
              f"(<= 5 mHa); h4 triple run improves the pair baseline by "
              f"{improvement * 1e3:.3f} mHa (>= 0.1 mHa)", started, budget=600.0)


def test_criterion_09_hybrid_staging(problems):
    space, basis, ham = problems["h2"]
    spec2 = AnsatzSpec("2s")
    config = PtConfig(
        t_first=0.001, t_last=0.02, n_replicas=2, sweeps=40,
        swap_interval=4, step_size=0.1, seed=90,
    )
    stage1 = run_parallel_tempering(
        config, spec2, basis, ham, cold_start(spec2, 4, np.random.default_rng(90))
    )
    pair_best = stage1.best_params()
    ev2 = EnergyEvaluator(spec2, 4, basis, ham)
    e2 = ev2.energy(ev2.flatten(pair_best)).e

    spec_h = AnsatzSpec("3s[2s]")
    hybrid = CorrelatorSet.hybrid_from_pairs(spec_h, pair_best)
    ev_h = EnergyEvaluator(spec_h, 4, basis, ham)
    e_init = ev_h.energy(ev_h.flatten(hybrid)).e
    assert e_init == e2  # bitwise: identity triples change nothing

    stage2 = run_parallel_tempering(config, spec_h, basis, ham, hybrid)
    final = stage2.best_params()
    for key, tensor in pair_best.pairs.items():
        assert np.array_equal(final.pairs[key], tensor)
    assert stage2.best_energy <= e_init
    running = min(r.energy for r in stage2.trace)
    assert stage2.best_energy <= running
    report(9, "product hybrid starts bitwise at the frozen pair energy, "
              "frozen tensors unchanged after optimization, best-so-far "
              "monotone")


def test_criterion_10_swap_and_ladder_formulas(problems):
    rng = np.random.default_rng(1010)
    for _ in range(300):
        t1 = float(rng.uniform(1e-4, 0.05))
        t2 = float(t1 * rng.uniform(1.001, 4.0))
        e1, e2 = (float(v) for v in rng.uniform(-3.0, 0.0, 2))
        arg = (e2 - e1) * (t1 - t2) / (t1 * t2)
        independent = 1.0 if arg >= 0 else math.exp(arg)
        assert abs(swap_probability(t1, e1, t2, e2) - independent) <= 1e-15
    for p in (2, 4, 8):
        for _ in range(50):
            t1 = float(rng.uniform(1e-4, 0.05))
            tp = float(t1 * rng.uniform(1.0, 4.0))
            ours = temperature_ladder(t1, tp, p)
            theirs = [
                t1 ** (1 - (l - 1) / (p - 1)) * tp ** ((l - 1) / (p - 1))
                for l in range(1, p + 1)
            ]
            assert max(abs(a - b) for a, b in zip(ours, theirs)) <= 1e-15

    space, basis, ham = problems["h2"]
    spec = AnsatzSpec("2s")
    ev = EnergyEvaluator(spec, 4, basis, ham)
    x = ev.flatten(CorrelatorSet.identity(spec, 4))
    replica = ReplicaState(
        x=x, energy=ev.energy(x).e, step=0.05, rng=np.random.default_rng(3)
    )
    ratios = [
        metropolis_sweep(replica, 1e6, ev, target_acceptance=None)
        for _ in range(100)
    ]
    assert abs(np.mean(ratios) - 1.0) <= 0.02
    report(10, "swap and ladder rules match independently coded closed forms "
               "to 1e-15 (absolute, physical range); high-temperature "
               f"acceptance {np.mean(ratios):.3f} within 2% of unity")


def test_criterion_11_determinism_and_restart(problems, tmp_path):
    # Execution is single-threaded with fixed-order reductions, so thread
    # pools cannot reorder any accumulation; two runs must agree bitwise.
    space, basis, ham = problems["h2"]
    spec = AnsatzSpec("2s")
    config = PtConfig(
        t_first=0.001, t_last=0.02, n_replicas=3, sweeps=30,
        swap_interval=4, step_size=0.1, seed=1111,
    )
    init = cold_start(spec, 4, np.random.default_rng(1111))
    run_a = run_parallel_tempering(config, spec, basis, ham, init.copy())
    run_b = run_parallel_tempering(config, spec, basis, ham, init.copy())
    assert [r.as_list() for r in run_a.trace] == [r.as_list() for r in run_b.trace]

    half_cfg = PtConfig(
        t_first=0.001, t_last=0.02, n_replicas=3, sweeps=15,
        swap_interval=4, step_size=0.1, seed=1111,
    )
    half = run_parallel_tempering(half_cfg, spec, basis, ham, init.copy())
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(half, ckpt)
    resumed = load_checkpoint(ckpt, basis, ham)
    continue_parallel_tempering(resumed, 15)
    tail_a = [r.as_list() for r in run_a.trace if r.sweep > 15]
    tail_r = [r.as_list() for r in resumed.trace if r.sweep > 15]
    assert tail_a == tail_r
    assert resumed.best_energy == run_a.best_energy
    report(11, "identical seed/config give bit-identical traces; checkpoint "
               "restart continues bit-identically")
