"""Parallel tempering, refinement stages, warm starts, and checkpointing."""

import errno
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg, optimize, stats

from cgtns import analysis, optimizer
from cgtns.correlators import ANSATZ_KINDS, AmplitudeEngine, AnsatzSpec
from cgtns.energy import EnergyEvaluator, EnergyReport
from cgtns.errors import ConfigError, DimensionError, FrozenTensorError
from cgtns.fock import build_csf_basis, enumerate_onvs
from cgtns.hamiltonian import (
    HamiltonianOperator,
    IntegralSet,
    exact_diagonalize,
    parse_fcidump,
)
from cgtns.optimizer import (
    PtConfig,
    ReplicaState,
    bfgs_refine,
    cold_start,
    continue_parallel_tempering,
    gradient_subspace_solve,
    load_checkpoint,
    metropolis_sweep,
    reduced_gradient_sweep,
    run_parallel_tempering,
    run_stages,
    save_checkpoint,
    subspace_refine,
    swap_probability,
    temperature_ladder,
)

from oracles import amplitude, identity, metropolis_sweep_full, randomize, tensors

FIXTURES = Path(__file__).parent.parent / "src" / "cgtns" / "fixtures"


@pytest.fixture(scope="module")
def h2():
    ints = parse_fcidump(FIXTURES / "h2.fcidump")
    space = enumerate_onvs(4, 2, 0.0)
    basis = build_csf_basis(space, 0.0)
    ham = HamiltonianOperator(ints, space)
    return basis, ham


@pytest.fixture(scope="module")
def h4():
    ints = parse_fcidump(FIXTURES / "h4.fcidump")
    space = enumerate_onvs(8, 4, 0.0)
    basis = build_csf_basis(space, 0.0)
    ham = HamiltonianOperator(ints, space)
    return basis, ham


def ladder_closed_form(t1, tp, p):
    """Independent geometric interpolation T_1**(1-a) * T_P**a."""
    if p == 1:
        return [t1]
    return [t1 ** (1 - (l - 1) / (p - 1)) * tp ** ((l - 1) / (p - 1)) for l in range(1, p + 1)]


def swap_closed_form(t1, e1, t2, e2):
    """Independent algebraic rearrangement of the swap rule."""
    arg = (e2 - e1) * (t1 - t2) / (t1 * t2)
    return 1.0 if arg >= 0 else math.exp(arg)


class TestTemperatureLadder:
    def test_geometric_midpoint(self):
        ladder = temperature_ladder(0.001, 0.1, 3)
        assert ladder == pytest.approx([0.001, 0.01, 0.1], rel=1e-12)

    def test_flat_ladder(self):
        assert temperature_ladder(0.02, 0.02, 4) == pytest.approx([0.02] * 4)

    def test_single_replica(self):
        assert temperature_ladder(0.01, 0.01, 1) == [0.01]
        with pytest.raises(ConfigError):
            temperature_ladder(0.01, 0.02, 1)

    def test_constant_ratio(self):
        ladder = temperature_ladder(0.002, 0.05, 5)
        ratios = [b / a for a, b in zip(ladder, ladder[1:])]
        assert max(ratios) - min(ratios) < 1e-12

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_against_closed_form(self, p):
        # Agreement to 1e-15 absolute over the physical temperature range;
        # the two expressions are equal up to a couple of ulps.
        rng = np.random.default_rng(p)
        for _ in range(50):
            t1 = float(rng.uniform(1e-4, 0.05))
            tp = float(t1 * rng.uniform(1.0, 4.0))
            ours = temperature_ladder(t1, tp, p)
            theirs = ladder_closed_form(t1, tp, p)
            for a, b in zip(ours, theirs):
                assert abs(a - b) <= 1e-15


class TestSwapProbability:
    def test_equal_energies(self):
        assert swap_probability(0.01, -1.0, 0.02, -1.0) == 1.0

    def test_hand_evaluated_cases(self):
        assert swap_probability(0.01, -1.0, 0.02, -1.1) == 1.0
        p = swap_probability(0.01, -1.1, 0.02, -1.0)
        assert p == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert p == pytest.approx(6.74e-3, abs=5e-5)

    def test_equal_temperatures_rejected(self):
        with pytest.raises(ConfigError):
            swap_probability(0.01, -1.0, 0.01, -2.0)

    def test_against_independent_closed_form(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            t1, t2 = sorted(rng.uniform(1e-4, 0.2, size=2))
            if t1 == t2:
                continue
            e1, e2 = rng.uniform(-3, 3, size=2)
            ours = swap_probability(t1, e1, t2, e2)
            theirs = swap_closed_form(t1, e1, t2, e2)
            assert abs(ours - theirs) <= 1e-15


class _QuadraticToy:
    """Duck-typed evaluator with E = 0.5 |x|^2 over two free parameters."""

    def __init__(self):
        self.engine = SimpleNamespace(active_indices=np.arange(2))

    def energy(self, x):
        return EnergyReport(e=float(0.5 * np.dot(x, x)), norm=1.0)


class TestMetropolis:
    def test_infinite_temperature_accepts_everything(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = identity(spec, 4)
        replica = ReplicaState(
            x=x, energy=ev.energy(x).e, step=0.05,
            rng=np.random.default_rng(1),
        )
        ratios = [metropolis_sweep(replica, 1e6, ev) for _ in range(100)]
        assert np.mean(ratios) > 0.98

    def test_zero_temperature_only_descends(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = identity(spec, 4)
        replica = ReplicaState(
            x=x, energy=ev.energy(x).e, step=0.05,
            rng=np.random.default_rng(2),
        )
        energies = [replica.energy]
        for _ in range(20):
            metropolis_sweep(replica, 1e-300, ev, target_acceptance=None)
            energies.append(replica.energy)
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        assert energies[-1] < energies[0]

    def test_fixed_seed_reproducibility(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)

        def run():
            x = identity(spec, 4)
            replica = ReplicaState(
                x=x, energy=ev.energy(x).e, step=0.1,
                rng=np.random.default_rng(42),
            )
            out = []
            for _ in range(10):
                ratio = metropolis_sweep(replica, 0.01, ev, target_acceptance=0.4)
                out.append((ratio, replica.energy, replica.step))
            return out, replica.x

        first, x1 = run()
        second, x2 = run()
        assert first == second
        assert np.array_equal(x1, x2)

    def test_stationary_density_matches_boltzmann(self):
        # Frozen two-parameter toy at fixed step: the empirical marginal must
        # match the exp(-E/T) Gaussian (KS distance below 0.05).
        toy = _QuadraticToy()
        temperature = 0.5
        replica = ReplicaState(
            x=np.zeros(2), energy=0.0, step=1.2,
            rng=np.random.default_rng(2024),
        )
        burn, keep = 2_000, 50_000
        samples = np.empty(keep)
        for i in range(burn + keep):
            metropolis_sweep(replica, temperature, toy, target_acceptance=None)
            if i >= burn:
                samples[i - burn] = replica.x[0]
        stat, _ = stats.kstest(samples, "norm", args=(0.0, math.sqrt(temperature)))
        assert stat < 0.05


def _h4_start(engine, seed, cli_like):
    """A start as the CLI builds it (warm-started pure triples, identity or
    near-zero hybrid triples on cold pairs) or with noisy triples."""
    spec = engine.spec
    rng = np.random.default_rng(seed)
    if not spec.has_triples or (not cli_like and not spec.is_hybrid):
        return cold_start(engine, rng)
    pair_spec = AnsatzSpec(spec.pair_stage)
    pairs = cold_start(AmplitudeEngine(pair_spec, 8, engine.space), rng)
    if not spec.is_hybrid:
        return optimizer._warm_triples(engine, pairs)
    x = np.ones(engine.n_params)
    x[: len(pairs)] = pairs
    active = engine.active_indices
    if cli_like and spec.combine_mode == "sum":
        x[active] = rng.uniform(-1e-3, 1e-3, len(active))
    elif not cli_like:
        x[active] += rng.uniform(-0.1, 0.1, len(active))
    return x


def _replica_pair(ev, x, seed, step=0.1):
    """Two replicas in the same state with the same RNG stream."""
    e = ev.energy(x).e
    return [
        ReplicaState(x=x.copy(), energy=e, step=step, rng=np.random.default_rng(seed))
        for _ in range(2)
    ]


def _assert_sweeps_match(ev, fast, ref, temperature, sweeps, target=0.4):
    for _ in range(sweeps):
        ratio_fast = metropolis_sweep(fast, temperature, ev, target)
        ratio_ref = metropolis_sweep_full(ref, temperature, ev, target)
        assert ratio_fast == ratio_ref
        assert fast.step == ref.step
        assert np.array_equal(fast.x, ref.x)
        assert fast.energy == ref.energy


class TestLocalMoves:
    """The local-update sweep against the full-recompute reference sweep."""

    @pytest.mark.parametrize("cli_like", [True, False], ids=["cli-start", "noisy"])
    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_matches_full_recompute(self, h4, kind, cli_like):
        basis, ham = h4
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = _h4_start(ev.engine, 5 if cli_like else 6, cli_like)
        fast, ref = _replica_pair(ev, x, seed=7)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=4)

    def test_proposal_energies_match_full_evaluation(self, h4):
        basis, ham = h4
        spec = AnsatzSpec("3s[2s]")
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = _h4_start(ev.engine, 7, cli_like=False)
        moves = ev.local_moves(x)
        rng = np.random.default_rng(8)
        for k in rng.choice(len(ev.engine.active_indices), 40, replace=False):
            delta = float(rng.uniform(-0.5, 0.5))
            x_new = x.copy()
            x_new[ev.engine.active_indices[k]] += delta
            e_local = moves.propose(x, k, delta)
            if e_local is not None:
                assert e_local == pytest.approx(ev.energy(x_new).e, rel=1e-12)

    def test_zero_entry_uses_the_cofactor(self, h4):
        basis, ham = h4
        spec = AnsatzSpec("3s[2s]")
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = _h4_start(ev.engine, 9, cli_like=False)
        k = next(k for k, (_, dets) in enumerate(ev.engine.entry_cells) if len(dets))
        entry = ev.engine.active_indices[k]
        x[entry] = 0.0
        moves = ev.local_moves(x)
        x_new = x.copy()
        x_new[entry] = 0.3
        assert moves.propose(x, k, 0.3) == pytest.approx(ev.energy(x_new).e, rel=1e-12)
        assert moves.accept()
        # The accepted zero-entry move leaves a state that matches a rebuild.
        rebuilt = ev.local_moves(x_new)
        assert moves.energy == pytest.approx(rebuilt.energy, rel=1e-12)
        assert np.allclose(moves.uw, rebuilt.uw, rtol=1e-12, atol=1e-14)
        # A sweep from a zero entry takes the same decisions as the reference.
        fast, ref = _replica_pair(ev, x, seed=10)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=2)

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_degenerate_proposals_abort_and_keep_the_state(self, h2, caplog):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        # Amplitudes of 30**10 need no rescaling; a step of order 1e300
        # overflows them, so every proposal on an entry that some determinant
        # selects is degenerate.  The other entries move nothing and are
        # accepted at zero energy change.
        x = np.full(ev.engine.n_params, 30.0)
        assert ev.local_moves(x) is not None
        selected = np.array([len(dets) > 0 for _, dets in ev.engine.entry_cells])
        assert 0 < selected.sum() < selected.size
        fast, ref = _replica_pair(ev, x, seed=11, step=1e300)
        with caplog.at_level("WARNING", logger="cgtns.optimizer"):
            ratio = metropolis_sweep(fast, 0.01, ev, target_acceptance=None)
        aborted = [r for r in caplog.records if "aborted" in r.getMessage()]
        assert len(aborted) == selected.sum()
        assert ratio == (~selected).sum() / selected.size
        assert np.array_equal(fast.x[ev.engine.active_indices[selected]], x[selected])
        assert fast.energy == ev.energy(x).e
        assert metropolis_sweep_full(ref, 0.01, ev, target_acceptance=None) == ratio
        assert np.array_equal(fast.x, ref.x)
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("kind,seed", [("3s[2s]", 2), ("3s", 2)])
    def test_cli_run_matches_full_recompute_at_extreme_scales(
        self, tmp_path, monkeypatch, kind, seed
    ):
        # 3s[2s] seed 2 drives the hot replica's squared norm up by many
        # orders and back within one sweep; the local sums then carry an
        # absolute error of order eps times the peak, so the trusted norm
        # floor must follow the accepted peak.  3s seed 2 renormalizes
        # weights above 1e100, whose energy must equal the one recomputed
        # after the sweep's power-of-two scale renormalization.
        from cgtns.cli import main

        def run(name):
            out = tmp_path / name
            argv = [
                "run", "--integrals", str(FIXTURES / "h4.fcidump"),
                "--ansatz", kind, "--seed", str(seed), "--out", str(out),
            ]
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text("replicas = 2\nsweeps = 30\nswap_interval = 1\n")
            assert main([*argv, "--config", str(cfg)]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        fast = run("fast")
        monkeypatch.setattr(optimizer, "metropolis_sweep", metropolis_sweep_full)
        full = run("full")
        assert sorted(fast) == sorted(full)
        for name in fast:
            if name != "config.txt":
                assert fast[name] == full[name], name

    def test_screened_evaluator_takes_the_full_path(self, h4, monkeypatch):
        basis, ham = h4
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 8, basis, ham, screen=0.3)
        x = _h4_start(ev.engine, 12, cli_like=True)
        assert ev.local_moves(x) is None
        calls = []
        full_energy = ev.energy

        def counted(x, *args, **kwargs):
            calls.append(1)
            return full_energy(x, *args, **kwargs)

        monkeypatch.setattr(ev, "energy", counted)
        fast, ref = _replica_pair(ev, x, seed=13)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=2)
        # Reference and fast sweeps each evaluate every proposal in full.
        assert len(calls) >= 4 * len(ev.engine.active_indices)

    def test_unscreened_sweep_evaluates_once(self, h4, monkeypatch):
        basis, ham = h4
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = _h4_start(ev.engine, 14, cli_like=True)
        calls = []
        full_energy = ev.energy

        def counted(x, *args, **kwargs):
            calls.append(1)
            return full_energy(x, *args, **kwargs)

        monkeypatch.setattr(ev, "energy", counted)
        replica = ReplicaState(x=x, energy=full_energy(x).e, step=0.1,
                               rng=np.random.default_rng(15))
        metropolis_sweep(replica, 0.01, ev, target_acceptance=0.4)
        assert len(calls) == 1


class TestRunParallelTempering:
    def test_h2_reaches_oracle(self, h2):
        basis, ham = h2
        e0, _ = exact_diagonalize(ham)
        spec = AnsatzSpec("2s")
        config = PtConfig(
            t_first=0.0005, t_last=0.05, n_replicas=3, sweeps=120,
            swap_interval=5, step_size=0.1, seed=7,
        )
        ev = EnergyEvaluator(spec, 4, basis, ham)
        init = cold_start(ev.engine, np.random.default_rng(7))
        ensemble = run_parallel_tempering(config, ev, init)
        assert ensemble.best_energy >= e0 - 1e-12
        assert ensemble.best_energy - e0 < 5e-3

    def test_trace_shape_and_best_monotone(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(n_replicas=2, sweeps=12, swap_interval=3, seed=3)
        ev = EnergyEvaluator(spec, 4, basis, ham)
        init = cold_start(ev.engine, np.random.default_rng(3))
        ensemble = run_parallel_tempering(config, ev, init)
        assert len(ensemble.trace) == 12 * 2
        assert ensemble.best_energy <= min(r.energy for r in ensemble.trace)

    def test_multi_replica_rejects_flat_ladder(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(
            t_first=0.01, t_last=0.01, n_replicas=3, sweeps=5, seed=1
        )
        ev = EnergyEvaluator(spec, 4, basis, ham)
        init = cold_start(ev.engine, np.random.default_rng(1))
        with pytest.raises(ConfigError):
            run_parallel_tempering(config, ev, init)

    def test_single_replica_has_no_swaps(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(
            t_first=0.01, t_last=0.01, n_replicas=1, sweeps=10, seed=5
        )
        ev = EnergyEvaluator(spec, 4, basis, ham)
        init = cold_start(ev.engine, np.random.default_rng(5))
        ensemble = run_parallel_tempering(config, ev, init)
        assert not any(row.swapped for row in ensemble.trace)

    def test_start_vector_must_fit_the_layout(self, h2):
        basis, ham = h2
        ev = EnergyEvaluator(AnsatzSpec("2s"), 4, basis, ham)
        config = PtConfig(n_replicas=2, sweeps=1, seed=1)
        x = cold_start(ev.engine, np.random.default_rng(1))
        with pytest.raises(DimensionError):
            run_parallel_tempering(config, ev, x[:-1])
        x[3] = np.nan
        with pytest.raises(DimensionError):
            run_parallel_tempering(config, ev, x)

    def test_hybrid_staging_freezes_pairs(self, h2):
        basis, ham = h2
        spec_h = AnsatzSpec("3s[2s]")
        config = PtConfig(n_replicas=2, sweeps=15, swap_interval=4, seed=13)
        pair_stage, hybrid_stage = run_stages(config, spec_h, basis, ham)
        pair_x = pair_stage.best_x
        assert hybrid_stage.best_energy <= pair_stage.best_energy
        final = tensors(spec_h, 4, hybrid_stage.best_x)[0]
        for key, tensor in tensors(AnsatzSpec("2s"), 4, pair_x)[0].items():
            assert np.array_equal(final[key], tensor)
        frozen = json.loads(hybrid_stage.evaluator.engine.dumps(hybrid_stage.best_x))
        assert frozen["frozen"] == sorted(",".join(map(str, key)) for key in final)

    def test_identical_seeds_identical_traces(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(n_replicas=3, sweeps=20, swap_interval=4, seed=99)
        ev = EnergyEvaluator(spec, 4, basis, ham)
        init = cold_start(ev.engine, np.random.default_rng(99))
        a = run_parallel_tempering(config, ev, init)
        b = run_parallel_tempering(config, EnergyEvaluator(spec, 4, basis, ham), init)
        assert [r.as_list() for r in a.trace] == [r.as_list() for r in b.trace]
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.best_x, b.best_x)


class TestWarmStarts:
    def test_cold_start_range(self):
        spec = AnsatzSpec("2s")
        engine = AmplitudeEngine(spec, 6, enumerate_onvs(6, 3, 0.5))
        x = cold_start(engine, np.random.default_rng(1))
        assert x.shape == (engine.n_params,)
        assert np.all(np.abs(x - 1.0) <= 0.1)

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_cold_start_draws_tensor_by_tensor(self, kind):
        # One draw over the active entries in layout order is the per-tensor
        # draw of identity plus noise, bit for bit; frozen pairs stay one.
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        engine = AmplitudeEngine(spec, 8, enumerate_onvs(8, 4, 0.0))
        for seed in range(3):
            x = cold_start(engine, np.random.default_rng(seed))
            ref = randomize(spec, 8, np.random.default_rng(seed), scale=0.1)
            assert np.array_equal(x, ref)

    @pytest.mark.parametrize(
        "pair_kind,triple_kind", [("2s", "3s"), ("2s/si", "3s/si")]
    )
    def test_pure_triple_warm_start_reproduces_pair_amplitudes(
        self, pair_kind, triple_kind
    ):
        m = 6
        rng = np.random.default_rng(8)
        space = enumerate_onvs(m, 3, 0.5)
        pair_spec = AnsatzSpec(pair_kind)
        pairs = cold_start(AmplitudeEngine(pair_spec, m, space), rng)
        # Mix in negative entries to exercise the sign assignment.
        pair_tensors = tensors(pair_spec, m, pairs)[0]
        pair_tensors[(0, 1)][0, 1] *= -1.0
        pair_tensors[(2, 4)][1, 1] *= -1.0
        triple_spec = AnsatzSpec(triple_kind)
        assert triple_spec.pair_stage == pair_kind
        warm = optimizer._warm_triples(AmplitudeEngine(triple_spec, m, space), pairs)
        for bits in space.onvs:
            assert amplitude(triple_spec, m, warm, bits) == pytest.approx(
                amplitude(pair_spec, m, pairs, bits), rel=1e-12, abs=1e-14
            )

    def test_sum_hybrid_start_stays_near_pair_energy(self, h2):
        basis, ham = h2
        spec_s = AnsatzSpec("3s+[2s]")
        config = PtConfig(n_replicas=2, sweeps=0, seed=3)
        pair_stage, hybrid_stage = run_stages(config, spec_s, basis, ham)
        start = hybrid_stage.best_x
        assert np.array_equal(start[: len(pair_stage.best_x)], pair_stage.best_x)
        assert abs(hybrid_stage.best_energy - pair_stage.best_energy) < 5e-2
        for tensor in tensors(spec_s, 4, start)[1].values():
            assert np.max(np.abs(tensor)) <= 1e-3


class TestRunStages:
    """The stage plan: pair stage, starts, and per-stage seeds."""

    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_stage_plan(self, h4, kind):
        basis, ham = h4
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        config = PtConfig(n_replicas=2, sweeps=0, seed=5)
        stages = list(run_stages(config, spec, basis, ham))
        kinds = [stage.evaluator.spec.kind for stage in stages]
        assert kinds == [k for k in (spec.pair_stage, kind) if k is not None]
        seeds = [stage.config.seed for stage in stages]
        assert seeds == list(range(5, 5 + len(stages)))
        assert stages[-1].evaluator.spec == spec

    @pytest.mark.parametrize("kind", ["3s[2s]", "3s/si[2s]", "3s[2s]sel"])
    def test_hybrid_start_is_pair_vector_with_identity_triples(self, h4, kind):
        basis, ham = h4
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        config = PtConfig(n_replicas=2, sweeps=0, seed=2)
        pair_stage, hybrid_stage = run_stages(config, spec, basis, ham)
        n_pair = len(pair_stage.best_x)
        start = hybrid_stage.best_x
        assert np.array_equal(start[:n_pair], pair_stage.best_x)
        assert np.all(start[n_pair:] == 1.0)
        assert hybrid_stage.best_energy == pair_stage.best_energy

    def test_warm_pure_triples_reproduce_the_pair_stage(self, h4):
        basis, ham = h4
        config = PtConfig(n_replicas=2, sweeps=0, seed=4)
        pair_stage, triple_stage = run_stages(config, AnsatzSpec("3s"), basis, ham)
        e_pair = pair_stage.best_energy
        assert triple_stage.best_energy == pytest.approx(e_pair, abs=1e-10)

    @pytest.mark.parametrize("kind, n_stages", [("3s", 1), ("3s/si", 1), ("3s[2s]", 2)])
    def test_cold_pure_triples_run_alone(self, h4, kind, n_stages):
        # A cold pure-triple run needs no pair vector; hybrids ignore ``cold``.
        basis, ham = h4
        config = PtConfig(n_replicas=2, sweeps=0, seed=3)
        stages = list(run_stages(config, AnsatzSpec(kind), basis, ham, cold=True))
        assert len(stages) == n_stages
        if n_stages == 1:
            engine = stages[0].evaluator.engine
            rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(99,)))
            assert np.array_equal(stages[0].best_x, cold_start(engine, rng))
            assert stages[0].config.seed == 3


class TestBfgsRefine:
    def test_constant_energy_returns_immediately(self):
        ints = IntegralSet.zeros(1, e_core=-0.7)
        ints.h[0, 0] = -1.0
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 2, basis, ham)
        result = bfgs_refine(ev, cold_start(ev.engine, np.random.default_rng(5)))
        assert result.n_iterations == 0
        assert result.converged

    def test_lowers_energy_and_respects_bound(self, h2):
        basis, ham = h2
        e0, _ = exact_diagonalize(ham)
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(6))
        start = ev.energy(x).e
        result = bfgs_refine(ev, x, max_iter=300)
        assert result.energy <= start
        assert result.energy >= e0 - 1e-12
        assert result.energy - e0 < 1e-6

    def test_one_dimensional_quadratic_surrogate(self, h2):
        # Closed-form line minimum of the Rayleigh quotient along one
        # amplitude direction, versus the numeric minimizer.
        basis, ham = h2
        K = basis.dense()
        H = K @ ham.matrix() @ K.T
        O = K @ K.T
        rng = np.random.default_rng(9)
        c0 = rng.uniform(0.5, 1.0, basis.space.size)
        d = np.zeros_like(c0)
        d[2] = 1.0
        a = K @ c0
        b = K @ d
        alpha, beta, gamma = a @ H @ a, a @ H @ b, b @ H @ b
        A, B, C = a @ O @ a, a @ O @ b, b @ O @ b
        # dE/dt numerator: (beta + gamma t)(A + 2Bt + Ct^2)
        #                  - (alpha + 2 beta t + gamma t^2)(B + Ct) = 0
        coeffs = [
            gamma * B - beta * C,
            gamma * A - alpha * C,
            beta * A - alpha * B,
        ]
        roots = [r for r in np.roots(coeffs) if abs(r.imag) < 1e-12]
        ev = EnergyEvaluator(AnsatzSpec("2s"), basis.space.m, basis, ham)

        def line_energy(t):
            return ev.energy_from_weights(ev.K @ (c0 + t * d)).e

        energies = [line_energy(float(r.real)) for r in roots]
        t_star = float(roots[int(np.argmin(energies))].real)

        def line_gradient(t):
            c = c0 + t * d
            return float(d @ ev.gradient_from_weights(ev.K @ c, ev.K.T))

        t_num = optimize.brentq(
            line_gradient, t_star - 0.1, t_star + 0.1, xtol=1e-13
        )
        assert abs(t_num - t_star) < 1e-8
        assert line_energy(t_num) == pytest.approx(min(energies), abs=1e-12)


class TestReducedGradient:
    def test_zero_gradient_leaves_params(self):
        ints = IntegralSet.zeros(1, e_core=0.1)
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 2, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(4))
        result = reduced_gradient_sweep(ev, x, passes=2)
        assert result.x is not x
        assert np.array_equal(result.x, x)

    def test_energy_never_increases(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(10))
        start = ev.energy(x).e
        result = reduced_gradient_sweep(ev, x, passes=4)
        assert result.energy <= start

    def test_agrees_with_bfgs_at_stationary_point(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(12))
        refined = bfgs_refine(ev, x, max_iter=400, tol=1e-10)
        touched = reduced_gradient_sweep(ev, refined.x, passes=2)
        assert abs(touched.energy - refined.energy) < 1e-8

    def test_requires_active_pairs(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("3s[2s]")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        with pytest.raises(FrozenTensorError):
            reduced_gradient_sweep(ev, identity(spec, 4))

    @pytest.mark.parametrize("kind", ["2s", "2s/si"])
    @pytest.mark.parametrize("name", ["h4", "h6"])
    def test_pair_rows_match_full_gradient(self, name, kind):
        # The sweep prices each pair from that tensor's Jacobian rows alone;
        # they must be the pair's rows of the full gradient, bit for bit.
        ints = parse_fcidump(FIXTURES / f"{name}.fcidump")
        space = enumerate_onvs(2 * ints.m_orb, ints.n_electrons, ints.ms2 / 2.0)
        basis = build_csf_basis(space, ints.ms2 / 2.0)
        ham = HamiltonianOperator(ints, space)
        ev = EnergyEvaluator(AnsatzSpec(kind), space.m, basis, ham)
        engine = ev.engine
        x = cold_start(engine, np.random.default_rng(1))
        full = ev.gradient(x)
        for key in engine.pair_keys:
            dS = engine.jacobian_rows(x, key) @ ev.K.T
            rows = ev.gradient_from_weights(ev.weights(x), dS)
            assert np.array_equal(rows, full[engine.active_rows(key)])


class TestGradientSubspace:
    def test_single_csf_space_energy(self):
        ints = IntegralSet.zeros(1, e_core=0.3)
        ints.h[0, 0] = -0.8
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 2, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(3))
        _, e_sub = gradient_subspace_solve(ev, x, 0, 1)
        K = basis.dense()
        assert e_sub == pytest.approx((K @ ham.matrix() @ K.T)[0, 0], abs=1e-10)

    def test_lowers_energy_and_matches_dense_oracle(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(21))
        before = ev.energy(x).e
        key = (1, 2)
        x_new, e_sub = gradient_subspace_solve(ev, x, *key)
        after = ev.energy(x_new).e
        assert after <= before + 1e-12
        assert after == pytest.approx(e_sub, abs=1e-9)

        # Independent dense pencil: basis states built from indicator tensors.
        K = basis.dense()
        H = K @ ham.matrix() @ K.T
        O = K @ K.T
        states = []
        for a in range(2):
            for b in range(2):
                probe = x.copy()
                tensor = tensors(spec, 4, probe)[0][key]
                tensor[:] = 0.0
                tensor[a, b] = 1.0
                amps = np.array(
                    [amplitude(spec, 4, probe, bits) for bits in basis.space.onvs]
                )
                states.append(K @ amps)
        V = np.array(states)
        evals = linalg.eigh(V @ H @ V.T, V @ O @ V.T, eigvals_only=True)
        assert e_sub == pytest.approx(float(evals[0]), abs=1e-10)

    def test_cycling_reaches_fixed_point(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(33))
        result = subspace_refine(ev, x)
        assert result.converged, "pair cycling did not reach a fixed point"
        assert result.energy <= ev.energy(x).e
        assert result.energy == pytest.approx(ev.energy(result.x).e, abs=1e-9)

    @pytest.mark.parametrize("kind", ["2s", "2s/si"])
    def test_refine_matches_evaluator_per_solve(self, h4, kind):
        # The reference is the pass loop with a fresh evaluator for every
        # pair solve: sharing one evaluator must change no bit.
        basis, ham = h4
        spec = AnsatzSpec(kind)
        ev = EnergyEvaluator(spec, 8, basis, ham)
        start = cold_start(ev.engine, np.random.default_rng(5))
        x = start
        energy = EnergyEvaluator(spec, 8, basis, ham).energy(x).e
        for passes in range(1, 51):
            improved = False
            for key in sorted(spec.pair_keys(8)):
                fresh = EnergyEvaluator(spec, 8, basis, ham)
                x, e_sub = gradient_subspace_solve(fresh, x, *key)
                if energy - e_sub > 1e-10:
                    improved = True
                energy = e_sub
            if not improved:
                break
        result = subspace_refine(ev, start)
        assert result.energy == energy
        assert np.array_equal(result.x, x)
        assert result.n_iterations == passes
        assert result.converged == (not improved)

    def test_pass_cap_reports_not_converged(self, h2, monkeypatch):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        monkeypatch.setattr(optimizer, "SUBSPACE_PASSES", 1)
        ev = EnergyEvaluator(spec, 4, basis, ham)
        result = subspace_refine(ev, cold_start(ev.engine, np.random.default_rng(33)))
        assert result.n_iterations == 1
        assert not result.converged

    def test_rejects_frozen_pairs(self, h2):
        basis, ham = h2
        for kind in ("3s[2s]", "3s+[2s]"):
            spec = AnsatzSpec(kind)
            x = identity(spec, 4)
            ev = EnergyEvaluator(spec, 4, basis, ham)
            with pytest.raises(FrozenTensorError):
                gradient_subspace_solve(ev, x, 0, 1)
            with pytest.raises(FrozenTensorError):
                subspace_refine(ev, x)


class TestRefinerContract:
    """Every refinement runs on the caller's evaluator and flat vector."""

    REFINERS = [bfgs_refine, reduced_gradient_sweep, subspace_refine]

    @pytest.mark.parametrize("refiner", REFINERS)
    def test_screened_evaluator_refused(self, h2, refiner):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham, screen=0.05)
        x = cold_start(ev.engine, np.random.default_rng(8))
        before = x.copy()
        with pytest.raises(ConfigError):
            refiner(ev, x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("refiner", REFINERS)
    def test_input_left_unchanged(self, h2, refiner):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(8))
        before = x.copy()
        result = refiner(ev, x)
        assert np.array_equal(x, before)
        assert result.x is not x
        assert result.energy <= ev.energy(x).e
        assert result.energy == pytest.approx(ev.energy(result.x).e, abs=1e-9)


class TestCheckpoint:
    def test_restart_continues_bit_identically(self, h2, tmp_path):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(n_replicas=3, sweeps=30, swap_interval=4, seed=17)
        ev = EnergyEvaluator(spec, 4, basis, ham)
        init = cold_start(ev.engine, np.random.default_rng(17))

        full = run_parallel_tempering(config, ev, init)

        half_config = PtConfig(n_replicas=3, sweeps=15, swap_interval=4, seed=17)
        half = run_parallel_tempering(half_config, ev, init)
        ckpt = tmp_path / "state.json"
        save_checkpoint(half, ckpt)
        resumed = load_checkpoint(ckpt, basis, ham)
        continue_parallel_tempering(resumed, 15)

        tail_full = [r.as_list() for r in full.trace if r.sweep > 15]
        tail_resumed = [r.as_list() for r in resumed.trace if r.sweep > 15]
        assert tail_full == tail_resumed
        assert resumed.best_energy == full.best_energy
        assert np.array_equal(resumed.best_x, full.best_x)
        for a, b in zip(full.replicas, resumed.replicas):
            assert np.array_equal(a.x, b.x)
            assert a.energy == b.energy
            assert a.step == b.step

    def test_screened_restart_continues_bit_identically(self, h4, tmp_path):
        basis, ham = h4
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 8, basis, ham, screen=0.3)
        init = cold_start(ev.engine, np.random.default_rng(21))

        def config(sweeps):
            return PtConfig(n_replicas=2, sweeps=sweeps, swap_interval=2, seed=21)

        full = run_parallel_tempering(config(6), ev, init)
        half = run_parallel_tempering(config(3), ev, init)
        ckpt = tmp_path / "screened.json"
        save_checkpoint(half, ckpt)
        resumed = load_checkpoint(ckpt, basis, ham)
        assert resumed.evaluator.screen == 0.3
        continue_parallel_tempering(resumed, 3)

        assert [r.as_list() for r in resumed.trace if r.sweep > 3] == [
            r.as_list() for r in full.trace if r.sweep > 3
        ]
        assert resumed.best_energy == full.best_energy
        assert np.array_equal(resumed.best_x, full.best_x)
        for a, b in zip(full.replicas, resumed.replicas):
            assert np.array_equal(a.x, b.x)
            assert a.energy == b.energy
            assert a.step == b.step

    def test_version_1_checkpoint_loads_unscreened(self, h2, tmp_path):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(n_replicas=2, sweeps=2, swap_interval=2, seed=3)
        ev = EnergyEvaluator(spec, 4, basis, ham, screen=0.05)
        init = cold_start(ev.engine, np.random.default_rng(3))
        ensemble = run_parallel_tempering(config, ev, init)
        ckpt = tmp_path / "v1.json"
        save_checkpoint(ensemble, ckpt)
        doc = json.loads(ckpt.read_text())
        assert (doc["version"], doc["screen"]) == (2, 0.05)
        doc["version"] = 1
        del doc["screen"]
        ckpt.write_text(json.dumps(doc))
        assert load_checkpoint(ckpt, basis, ham).evaluator.screen == 0.0

    @pytest.mark.parametrize("cut", ["best_x", "replica"])
    def test_cut_vectors_rejected_on_load(self, h2, tmp_path, cut):
        basis, ham = h2
        ev = EnergyEvaluator(AnsatzSpec("2s"), 4, basis, ham)
        config = PtConfig(n_replicas=2, sweeps=2, swap_interval=2, seed=3)
        ensemble = run_parallel_tempering(
            config, ev, cold_start(ev.engine, np.random.default_rng(3))
        )
        ckpt = tmp_path / "cut.json"
        save_checkpoint(ensemble, ckpt)
        doc = json.loads(ckpt.read_text())
        if cut == "best_x":
            doc["best_x"] = doc["best_x"][:-4]
        else:
            doc["replicas"][1]["x"] = doc["replicas"][1]["x"][:-4]
        ckpt.write_text(json.dumps(doc))
        with pytest.raises(DimensionError):
            load_checkpoint(ckpt, basis, ham)

    @pytest.mark.parametrize(
        "write",
        [save_checkpoint, lambda ens, path: analysis.export_trace(ens.trace, path)],
        ids=["checkpoint", "trace"],
    )
    def test_failed_write_keeps_the_previous_file(self, h2, tmp_path, monkeypatch, write):
        basis, ham = h2
        ev = EnergyEvaluator(AnsatzSpec("2s"), 4, basis, ham)
        config = PtConfig(n_replicas=2, sweeps=2, swap_interval=2, seed=3)
        ensemble = run_parallel_tempering(
            config, ev, cold_start(ev.engine, np.random.default_rng(3))
        )
        path = tmp_path / "artifact"
        write(ensemble, path)
        before = path.read_bytes()
        continue_parallel_tempering(ensemble, 2)

        class DiskFull:
            """A file that takes half of the text written to it, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = open
        with monkeypatch.context() as patch:
            patch.setattr(
                optimizer, "open", lambda *a, **k: DiskFull(real_open(*a, **k)), raising=False
            )
            with pytest.raises(OSError, match="No space"):
                write(ensemble, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        write(ensemble, path)
        assert path.read_bytes() != before
        assert list(tmp_path.iterdir()) == [path]
