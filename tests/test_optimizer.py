"""Parallel tempering, refinement stages, warm starts, and checkpointing."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg, optimize, stats

from cgtns import optimizer
from cgtns.correlators import ANSATZ_KINDS, AnsatzSpec, CorrelatorSet
from cgtns.energy import (
    EnergyEvaluator,
    EnergyReport,
    amplitude_space_gradient,
    energy_from_amplitudes,
)
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
    save_checkpoint,
    subspace_refine,
    sum_hybrid_start,
    swap_probability,
    temperature_ladder,
    warm_start_triples_from_pairs,
)

from oracles import amplitude, metropolis_sweep_full

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
        cset = CorrelatorSet.identity(spec, 4)
        x = ev.flatten(cset)
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
        cset = CorrelatorSet.identity(spec, 4)
        x = ev.flatten(cset)
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
        cset = CorrelatorSet.identity(spec, 4)

        def run():
            x = ev.flatten(cset)
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


def _h4_start(spec, seed, cli_like):
    """A start as the CLI builds it (warm-started pure triples, identity or
    near-zero hybrid triples on cold pairs) or with noisy triples."""
    rng = np.random.default_rng(seed)
    if not spec.has_triples or (not cli_like and not spec.is_hybrid):
        return cold_start(spec, 8, rng)
    pairs = cold_start(AnsatzSpec("2s/si" if spec.kind == "3s/si" else "2s"), 8, rng)
    if not spec.is_hybrid:
        return warm_start_triples_from_pairs(spec, pairs)
    if cli_like and spec.combine_mode == "sum":
        return sum_hybrid_start(spec, pairs, rng)
    cset = CorrelatorSet.hybrid_from_pairs(spec, pairs)
    if not cli_like:
        for key in sorted(cset.triples):
            cset.triples[key] += rng.uniform(-0.1, 0.1, (2, 2, 2))
    return cset


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
        x = ev.flatten(_h4_start(spec, 5 if cli_like else 6, cli_like))
        fast, ref = _replica_pair(ev, x, seed=7)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=4)

    def test_proposal_energies_match_full_evaluation(self, h4):
        basis, ham = h4
        spec = AnsatzSpec("3s[2s]")
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = ev.flatten(_h4_start(spec, 7, cli_like=False))
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
        x = ev.flatten(_h4_start(spec, 9, cli_like=False))
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

    def test_screened_evaluator_takes_the_full_path(self, h4, monkeypatch):
        basis, ham = h4
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 8, basis, ham, screen=0.3)
        x = ev.flatten(_h4_start(spec, 12, cli_like=True))
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
        x = ev.flatten(_h4_start(spec, 14, cli_like=True))
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
        init = cold_start(spec, 4, np.random.default_rng(7))
        ensemble = run_parallel_tempering(config, spec, basis, ham, init)
        assert ensemble.best_energy >= e0 - 1e-12
        assert ensemble.best_energy - e0 < 5e-3

    def test_trace_shape_and_best_monotone(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(n_replicas=2, sweeps=12, swap_interval=3, seed=3)
        init = cold_start(spec, 4, np.random.default_rng(3))
        ensemble = run_parallel_tempering(config, spec, basis, ham, init)
        assert len(ensemble.trace) == 12 * 2
        assert ensemble.best_energy <= min(r.energy for r in ensemble.trace)

    def test_multi_replica_rejects_flat_ladder(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(
            t_first=0.01, t_last=0.01, n_replicas=3, sweeps=5, seed=1
        )
        init = cold_start(spec, 4, np.random.default_rng(1))
        with pytest.raises(ConfigError):
            run_parallel_tempering(config, spec, basis, ham, init)

    def test_single_replica_has_no_swaps(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(
            t_first=0.01, t_last=0.01, n_replicas=1, sweeps=10, seed=5
        )
        init = cold_start(spec, 4, np.random.default_rng(5))
        ensemble = run_parallel_tempering(config, spec, basis, ham, init)
        assert not any(row.swapped for row in ensemble.trace)

    def test_hybrid_staging_freezes_pairs(self, h2):
        basis, ham = h2
        spec2 = AnsatzSpec("2s")
        pair_set = cold_start(spec2, 4, np.random.default_rng(11))
        ev2 = EnergyEvaluator(spec2, 4, basis, ham)
        e2 = ev2.energy(ev2.flatten(pair_set)).e
        spec_h = AnsatzSpec("3s[2s]")
        hybrid = CorrelatorSet.hybrid_from_pairs(spec_h, pair_set)
        # Identity triples leave the pair-product state untouched, bitwise.
        ev_h = EnergyEvaluator(spec_h, 4, basis, ham)
        assert ev_h.energy(ev_h.flatten(hybrid)).e == e2
        config = PtConfig(n_replicas=2, sweeps=15, swap_interval=4, seed=13)
        ensemble = run_parallel_tempering(config, spec_h, basis, ham, hybrid)
        assert ensemble.best_energy <= e2
        final = ensemble.best_params()
        for key, tensor in pair_set.pairs.items():
            assert np.array_equal(final.pairs[key], tensor)
        assert final.frozen == frozenset(final.pairs)

    def test_identical_seeds_identical_traces(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(n_replicas=3, sweeps=20, swap_interval=4, seed=99)
        init = cold_start(spec, 4, np.random.default_rng(99))
        a = run_parallel_tempering(config, spec, basis, ham, init.copy())
        b = run_parallel_tempering(config, spec, basis, ham, init.copy())
        assert [r.as_list() for r in a.trace] == [r.as_list() for r in b.trace]
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.best_x, b.best_x)


class TestWarmStarts:
    def test_cold_start_range(self):
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 6, np.random.default_rng(1))
        for tensor in cset.pairs.values():
            assert np.all(np.abs(tensor - 1.0) <= 0.1)

    @pytest.mark.parametrize(
        "pair_kind,triple_kind", [("2s", "3s"), ("2s/si", "3s/si")]
    )
    def test_pure_triple_warm_start_reproduces_pair_amplitudes(
        self, pair_kind, triple_kind
    ):
        m = 6
        rng = np.random.default_rng(8)
        pair_spec = AnsatzSpec(pair_kind)
        pairs = cold_start(pair_spec, m, rng)
        # Mix in negative entries to exercise the sign assignment.
        pairs.pairs[(0, 1)][0, 1] *= -1.0
        pairs.pairs[(2, 4)][1, 1] *= -1.0
        triple_spec = AnsatzSpec(triple_kind)
        warm = warm_start_triples_from_pairs(triple_spec, pairs)
        space = enumerate_onvs(m, 3, 0.5)
        for bits in space.onvs:
            assert amplitude(warm, triple_spec, bits) == pytest.approx(
                amplitude(pairs, pair_spec, bits), rel=1e-12, abs=1e-14
            )

    def test_warm_start_rejects_mismatched_source(self):
        pairs = cold_start(AnsatzSpec("2s/si"), 4, np.random.default_rng(2))
        with pytest.raises(DimensionError):
            warm_start_triples_from_pairs(AnsatzSpec("3s"), pairs)

    def test_sum_hybrid_start_stays_near_pair_energy(self, h2):
        basis, ham = h2
        spec2 = AnsatzSpec("2s")
        pairs = cold_start(spec2, 4, np.random.default_rng(3))
        ev2 = EnergyEvaluator(spec2, 4, basis, ham)
        e2 = ev2.energy(ev2.flatten(pairs)).e
        spec_s = AnsatzSpec("3s+[2s]")
        hybrid = sum_hybrid_start(spec_s, pairs, np.random.default_rng(4))
        ev_s = EnergyEvaluator(spec_s, 4, basis, ham)
        e_h = ev_s.energy(ev_s.flatten(hybrid)).e
        assert abs(e_h - e2) < 5e-2
        for tensor in hybrid.triples.values():
            assert np.max(np.abs(tensor)) <= 1e-3


class TestBfgsRefine:
    def test_constant_energy_returns_immediately(self):
        ints = IntegralSet.zeros(1, e_core=-0.7)
        ints.h[0, 0] = -1.0
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 2, np.random.default_rng(5))
        result = bfgs_refine(cset, spec, basis, ham)
        assert result.n_iterations == 0
        assert result.converged

    def test_lowers_energy_and_respects_bound(self, h2):
        basis, ham = h2
        e0, _ = exact_diagonalize(ham)
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 4, np.random.default_rng(6))
        ev = EnergyEvaluator(spec, 4, basis, ham)
        start = ev.energy(ev.flatten(cset)).e
        result = bfgs_refine(cset, spec, basis, ham, max_iter=300)
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
        energies = [
            energy_from_amplitudes(c0 + float(r.real) * d, basis, ham).e
            for r in roots
        ]
        t_star = float(roots[int(np.argmin(energies))].real)

        def line_gradient(t):
            return float(d @ amplitude_space_gradient(c0 + t * d, basis, ham))

        t_num = optimize.brentq(
            line_gradient, t_star - 0.1, t_star + 0.1, xtol=1e-13
        )
        assert abs(t_num - t_star) < 1e-8
        assert energy_from_amplitudes(c0 + t_num * d, basis, ham).e == pytest.approx(
            min(energies), abs=1e-12
        )


class TestReducedGradient:
    def test_zero_gradient_leaves_params(self):
        ints = IntegralSet.zeros(1, e_core=0.1)
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 2, np.random.default_rng(4))
        result = reduced_gradient_sweep(cset, spec, basis, ham, passes=2)
        for key, tensor in cset.pairs.items():
            assert np.array_equal(result.params.pairs[key], tensor)

    def test_energy_never_increases(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 4, np.random.default_rng(10))
        ev = EnergyEvaluator(spec, 4, basis, ham)
        start = ev.energy(ev.flatten(cset)).e
        result = reduced_gradient_sweep(cset, spec, basis, ham, passes=4)
        assert result.energy <= start

    def test_agrees_with_bfgs_at_stationary_point(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 4, np.random.default_rng(12))
        refined = bfgs_refine(cset, spec, basis, ham, max_iter=400, tol=1e-10)
        touched = reduced_gradient_sweep(
            refined.params, spec, basis, ham, passes=2
        )
        assert abs(touched.energy - refined.energy) < 1e-8

    def test_requires_active_pairs(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("3s[2s]")
        cset = CorrelatorSet.identity(spec, 4)
        with pytest.raises(FrozenTensorError):
            reduced_gradient_sweep(cset, spec, basis, ham)


class TestGradientSubspace:
    def test_single_csf_space_energy(self):
        ints = IntegralSet.zeros(1, e_core=0.3)
        ints.h[0, 0] = -0.8
        space = enumerate_onvs(2, 2, 0.0)
        basis = build_csf_basis(space, 0.0)
        ham = HamiltonianOperator(ints, space)
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 2, np.random.default_rng(3))
        ev = EnergyEvaluator(spec, 2, basis, ham)
        _, e_sub = gradient_subspace_solve(ev, ev.flatten(cset), 0, 1)
        from cgtns.hamiltonian import csf_matrix_element

        assert e_sub == pytest.approx(csf_matrix_element(0, 0, basis, ham), abs=1e-10)

    def test_lowers_energy_and_matches_dense_oracle(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 4, np.random.default_rng(21))
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = ev.flatten(cset)
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
                probe = cset.copy()
                probe.pairs[key][:] = 0.0
                probe.pairs[key][a, b] = 1.0
                amps = np.array(
                    [amplitude(probe, spec, bits) for bits in basis.space.onvs]
                )
                states.append(K @ amps)
        V = np.array(states)
        evals = linalg.eigh(V @ H @ V.T, V @ O @ V.T, eigvals_only=True)
        assert e_sub == pytest.approx(float(evals[0]), abs=1e-10)

    def test_cycling_reaches_fixed_point(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 4, np.random.default_rng(33))
        ev = EnergyEvaluator(spec, 4, basis, ham)
        result = subspace_refine(cset, spec, basis, ham)
        assert result.converged, "pair cycling did not reach a fixed point"
        assert result.energy <= ev.energy(ev.flatten(cset)).e
        assert result.energy == pytest.approx(
            ev.energy(ev.flatten(result.params)).e, abs=1e-9
        )

    @pytest.mark.parametrize("kind", ["2s", "2s/si"])
    def test_refine_matches_evaluator_per_solve(self, h4, kind):
        # The reference is the pass loop with a fresh evaluator for every
        # pair solve: sharing one evaluator must change no bit.
        basis, ham = h4
        spec = AnsatzSpec(kind)
        cset = cold_start(spec, 8, np.random.default_rng(5))
        x = EnergyEvaluator(spec, 8, basis, ham).flatten(cset)
        energy = EnergyEvaluator(spec, 8, basis, ham).energy(x).e
        for passes in range(1, 51):
            improved = False
            for key in sorted(cset.pairs):
                fresh = EnergyEvaluator(spec, 8, basis, ham)
                x, e_sub = gradient_subspace_solve(fresh, x, *key)
                if energy - e_sub > 1e-10:
                    improved = True
                energy = e_sub
            if not improved:
                break
        result = subspace_refine(cset, spec, basis, ham)
        assert result.energy == energy
        ref = EnergyEvaluator(spec, 8, basis, ham).unflatten(x)
        for key, tensor in ref.pairs.items():
            assert np.array_equal(result.params.pairs[key], tensor)
        assert result.n_iterations == passes
        assert result.converged == (not improved)

    def test_pass_cap_reports_not_converged(self, h2, monkeypatch):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        cset = cold_start(spec, 4, np.random.default_rng(33))
        monkeypatch.setattr(optimizer, "SUBSPACE_PASSES", 1)
        result = subspace_refine(cset, spec, basis, ham)
        assert result.n_iterations == 1
        assert not result.converged

    def test_rejects_frozen_pairs(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("3s[2s]")
        cset = CorrelatorSet.identity(spec, 4)
        ev = EnergyEvaluator(spec, 4, basis, ham)
        with pytest.raises(FrozenTensorError):
            gradient_subspace_solve(ev, ev.flatten(cset), 0, 1)
        with pytest.raises(FrozenTensorError):
            subspace_refine(cset, spec, basis, ham)


class TestCheckpoint:
    def test_restart_continues_bit_identically(self, h2, tmp_path):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        config = PtConfig(n_replicas=3, sweeps=30, swap_interval=4, seed=17)
        init = cold_start(spec, 4, np.random.default_rng(17))

        full = run_parallel_tempering(config, spec, basis, ham, init.copy())

        half_config = PtConfig(n_replicas=3, sweeps=15, swap_interval=4, seed=17)
        half = run_parallel_tempering(half_config, spec, basis, ham, init.copy())
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
        init = cold_start(spec, 8, np.random.default_rng(21))

        def config(sweeps):
            return PtConfig(n_replicas=2, sweeps=sweeps, swap_interval=2, seed=21)

        full = run_parallel_tempering(config(6), spec, basis, ham, init.copy(), screen=0.3)
        half = run_parallel_tempering(config(3), spec, basis, ham, init.copy(), screen=0.3)
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
        init = cold_start(spec, 4, np.random.default_rng(3))
        ensemble = run_parallel_tempering(config, spec, basis, ham, init, screen=0.05)
        ckpt = tmp_path / "v1.json"
        save_checkpoint(ensemble, ckpt)
        doc = json.loads(ckpt.read_text())
        assert (doc["version"], doc["screen"]) == (2, 0.05)
        doc["version"] = 1
        del doc["screen"]
        ckpt.write_text(json.dumps(doc))
        assert load_checkpoint(ckpt, basis, ham).evaluator.screen == 0.0
