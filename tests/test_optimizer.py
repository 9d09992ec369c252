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
from cgtns.correlators import ANSATZ_KINDS, AmplitudeEngine, AnsatzSpec, select_sites
from cgtns.energy import EnergyEvaluator, EnergyReport
from cgtns.errors import (
    ConfigError,
    DegenerateStateError,
    DimensionError,
    FrozenTensorError,
)
from cgtns.fock import build_csf_basis, enumerate_onvs, occupations
from cgtns.hamiltonian import (
    HamiltonianOperator,
    IntegralSet,
    exact_diagonalize,
    orbital_occupations,
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
    run_parallel_tempering,
    run_stages,
    save_checkpoint,
    subspace_refine,
    swap_probability,
    temperature_ladder,
)

from oracles import (
    amplitude,
    cofactors_reference,
    entry_cells_loop,
    identity,
    metropolis_sweep_full,
    randomize,
    solve_at_key,
    subspace_refine_reference,
    subspace_solve_reference,
    tensors,
    warm_triples_loop,
)

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


@pytest.fixture(scope="module")
def h6():
    ints = parse_fcidump(FIXTURES / "h6.fcidump")
    space = enumerate_onvs(12, 6, 0.0)
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
        self.engine = SimpleNamespace(live_indices=np.arange(2))

    def energy(self, x):
        return EnergyReport(e=float(0.5 * np.dot(x, x)))


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


def _start_vector(engine, seed, cli_like):
    """A start as the CLI builds it (warm-started pure triples, identity or
    small hybrid triples on cold pairs) or with noisy triples."""
    spec = engine.spec
    rng = np.random.default_rng(seed)
    if not spec.has_triples or (not cli_like and not spec.is_hybrid):
        return cold_start(engine, rng)
    pair_spec = AnsatzSpec(spec.pair_stage)
    pairs = cold_start(AmplitudeEngine(pair_spec, engine.m, engine.space), rng)
    if not spec.is_hybrid:
        return optimizer._warm_triples(engine, pairs)
    if cli_like:
        return optimizer._hybrid_start(engine, pairs, rng)
    x = np.ones(engine.n_params)
    x[: len(pairs)] = pairs
    x[engine.active_indices] += rng.uniform(-0.1, 0.1, len(engine.active_indices))
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


def _pencil_rows(ev, x):
    """(flat index, pencil, pencil row) of every live entry, each tensor's
    pencil built at ``x`` as a sweep builds it."""
    for moves, pencil in optimizer._tensor_pencils(ev, x):
        for j, entry in moves:
            yield entry, pencil, j


def _assert_pencil_prices(ev, x, picks, delta):
    """Every priced proposal of ``delta`` on the entries ``picks`` matches
    the full evaluation of the moved vector to 1e-12."""
    priced = 0
    for entry, pencil, j in _pencil_rows(ev, x):
        if entry not in picks:
            continue
        assert pencil.energy == pytest.approx(ev.energy(x).e, rel=1e-12)
        de = pencil.price(j, delta)
        if de is not None:
            x_new = x.copy()
            x_new[entry] += delta
            assert pencil.energy + de == pytest.approx(ev.energy(x_new).e, rel=1e-12)
            priced += 1
    return priced


class TestLocalMoves:
    """The pencil-priced sweep against the full-recompute reference sweep."""

    @pytest.mark.parametrize("cli_like", [True, False], ids=["cli-start", "noisy"])
    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_matches_full_recompute(self, h4, kind, cli_like):
        basis, ham = h4
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = _start_vector(ev.engine, 5 if cli_like else 6, cli_like)
        fast, ref = _replica_pair(ev, x, seed=7)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=4)
        # The starts and streams of seeds 1-6, at both ends of the default
        # temperature ladder.
        for seed in range(1, 7):
            x = _start_vector(ev.engine, seed, cli_like)
            fast, ref = _replica_pair(ev, x, seed=seed)
            temperature = 0.05 if seed % 2 else 0.001
            _assert_sweeps_match(ev, fast, ref, temperature, sweeps=2)

    @pytest.mark.parametrize("kind", ["3s", "3s[2s]", "3s/si[2s]"])
    def test_h6_matches_full_recompute(self, h6, kind):
        basis, ham = h6
        ev = EnergyEvaluator(AnsatzSpec(kind), 12, basis, ham)
        x = _start_vector(ev.engine, 1, cli_like=True)
        fast, ref = _replica_pair(ev, x, seed=1)
        _assert_sweeps_match(ev, fast, ref, temperature=0.05, sweeps=2)

    def test_sweep_moves_live_entries_and_draws_one_uniform_per_proposal(self, h4):
        # H4 3s holds 288 entries that no determinant selects.  A sweep
        # proposes no move on them, so their bits stay as they were (up to
        # the power of two of the scale renormalization); each live entry
        # draws its proposal's uniform, then one more to decide it.
        basis, ham = h4
        ev = EnergyEvaluator(AnsatzSpec("3s"), 8, basis, ham)
        engine = ev.engine
        selected = np.array([len(dets) > 0 for _, dets in entry_cells_loop(engine)])
        dead = engine.active_indices[~selected]
        assert len(dead) == 288
        x = _start_vector(engine, 3, cli_like=True)
        x[dead] = np.random.default_rng(4).uniform(-2.0, 2.0, len(dead))

        class CountingRng:
            def __init__(self, seed):
                self.rng, self.draws = np.random.default_rng(seed), []

            def uniform(self, low, high):
                self.draws.append("uniform")
                return self.rng.uniform(low, high)

            def random(self):
                self.draws.append("random")
                return self.rng.random()

        for temperature in (0.001, 0.05):
            fast, ref = _replica_pair(ev, x, seed=5, step=0.3)
            fast.rng = CountingRng(5)
            ratio = metropolis_sweep(fast, temperature, ev, target_acceptance=0.4)
            assert np.array_equal(np.frexp(fast.x[dead])[0], np.frexp(x[dead])[0])
            moved = np.flatnonzero(np.frexp(fast.x)[0] != np.frexp(x)[0])
            assert round(ratio * len(engine.live_indices)) == len(moved) > 0
            assert fast.rng.draws == ["uniform", "random"] * len(engine.live_indices)
            assert metropolis_sweep_full(ref, temperature, ev, 0.4) == ratio
            assert np.array_equal(fast.x, ref.x)

    def test_h6_sweep_evaluates_in_full_only_after_declines(self, h6, monkeypatch):
        # A sweep's full evaluations are those of proposals that left a
        # pencil's trusted range (the proposal, and the state before it when
        # only the pencil knew it) and the one of the final state.  A
        # roundoff-level priced change is decided on the pencil: the triple
        # stage's hot replica meets many of them by its fourth sweep.
        basis, ham = h6
        counts = {"energy": 0, "declines": 0}
        full_energy, price = EnergyEvaluator.energy, optimizer.TensorPencil.price
        sweep = optimizer.metropolis_sweep

        def counted_energy(ev, x, *args, **kwargs):
            counts["energy"] += 1
            return full_energy(ev, x, *args, **kwargs)

        def counted_price(pencil, j, delta):
            de = price(pencil, j, delta)
            counts["declines"] += pencil._pending is None
            return de

        def checked_sweep(*args, **kwargs):
            counts.update(energy=0, declines=0)
            ratio = sweep(*args, **kwargs)
            assert counts["energy"] <= 2 * counts["declines"] + 1
            return ratio

        monkeypatch.setattr(EnergyEvaluator, "energy", counted_energy)
        monkeypatch.setattr(optimizer.TensorPencil, "price", counted_price)
        monkeypatch.setattr(optimizer, "metropolis_sweep", checked_sweep)
        config = PtConfig(n_replicas=2, sweeps=4, swap_interval=1, seed=1)
        stages = list(run_stages(config, AnsatzSpec("3s[2s]"), basis, ham))
        assert [len(stage.trace) for stage in stages] == [8, 8]

    def test_proposal_energies_match_full_evaluation(self, h4):
        basis, ham = h4
        spec = AnsatzSpec("3s[2s]")
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = _start_vector(ev.engine, 7, cli_like=False)
        rng = np.random.default_rng(8)
        picks = set(rng.choice(ev.engine.live_indices, 40, replace=False).tolist())
        assert _assert_pencil_prices(ev, x, picks, 0.37) > 30

    def test_fall_after_a_rise_forms_the_sums_anew(self, h4):
        # A move that lifts the squared norm by 60 orders stays in the
        # trusted range; the move back falls below its rising floor.  Once
        # its full evaluation accepts it, H y, O y and the quotient are
        # formed anew from the pencil: the incremental sums carry an error
        # of order eps times the peak they held.
        basis, ham = h4
        ev = EnergyEvaluator(AnsatzSpec("3s[2s]"), 8, basis, ham)
        x = _start_vector(ev.engine, 7, cli_like=False)
        entry, pencil, j = next(_pencil_rows(ev, x))
        assert pencil.price(j, 1e30) is not None
        pencil.accept(j, 1e30)
        assert pencil.den > 1e50
        assert pencil.price(j, -1e30) is None
        pencil.accept(j, -1e30)
        fresh = optimizer.TensorPencil(pencil.HO, pencil.y.copy())
        sums = [pencil.num, pencil.den, pencil.hy, pencil.oy, pencil.floor]
        assert sums == [fresh.num, fresh.den, fresh.hy, fresh.oy, fresh.floor]
        x[entry] += 1e30
        x[entry] -= 1e30
        assert pencil.energy == pytest.approx(ev.energy(x).e, rel=1e-12)

    def test_zero_entry_uses_the_cofactor(self, h4):
        # A tensor's derivative states come from its cofactor, not from its
        # entries, so a zero entry is priced like any other.
        basis, ham = h4
        spec = AnsatzSpec("3s[2s]")
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = _start_vector(ev.engine, 9, cli_like=False)
        k = next(k for k, (_, dets) in enumerate(entry_cells_loop(ev.engine)) if len(dets))
        entry = int(ev.engine.active_indices[k])
        x[entry] = 0.0
        assert _assert_pencil_prices(ev, x, {entry}, 0.3) == 1
        # The accepted zero-entry move leaves a pencil that matches one formed
        # at the new entries.
        entry_, pencil, j = next(_pencil_rows(ev, x))
        assert entry_ == entry and j == 0
        assert pencil.price(j, 0.3) is not None
        pencil.accept(j, 0.3)
        fresh = optimizer.TensorPencil(pencil.HO, pencil.y.copy())
        assert pencil.energy == pytest.approx(fresh.energy, rel=1e-12)
        incremental, formed = [pencil.hy, pencil.oy], [fresh.hy, fresh.oy]
        assert np.allclose(incremental, formed, rtol=1e-12, atol=1e-14)
        # A sweep from a zero entry takes the same decisions as the reference.
        fast, ref = _replica_pair(ev, x, seed=10)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=2)

    def test_weights_outside_the_unscaled_range_stay_local(self, h4):
        # A frozen pair tensor scaled by 1e120 lifts every weight above
        # 1e100: each pencil's derivative states are divided by a power of
        # two, and proposals are still priced on it.
        basis, ham = h4
        ev = EnergyEvaluator(AnsatzSpec("3s[2s]"), 8, basis, ham)
        x = _start_vector(ev.engine, 9, cli_like=False)
        x[:4] *= 1e120
        assert np.max(np.abs(ev.weights(x))) > 1e100
        k = next(k for k, (_, dets) in enumerate(entry_cells_loop(ev.engine)) if len(dets))
        entry = int(ev.engine.active_indices[k])
        x[entry] = 0.0
        for _, pencil, _ in _pencil_rows(ev, x):
            assert 1e-6 < pencil.den < 1e6
        picks = {entry, *ev.engine.active_indices[1::7].tolist()}
        assert _assert_pencil_prices(ev, x, picks, 0.3) > len(picks) // 2
        fast, ref = _replica_pair(ev, x, seed=10)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=2)

    def test_h6_local_state_after_accepts_matches_a_rebuild(self, h6):
        # Accepting every priced move keeps each tensor's incremental sums
        # H y, O y and the quotient those of a pencil formed at the final
        # entries, whose quotient is the full energy; neither the evaluator
        # nor a pencil holds an n_det^2 array.
        basis, ham = h6
        ev = EnergyEvaluator(AnsatzSpec("3s[2s]"), 12, basis, ham)
        rng = np.random.default_rng(16)
        x = cold_start(ev.engine, rng)
        frozen = slice(None, ev.engine.active_indices[0])
        x[frozen] = rng.uniform(0.5, 1.5, len(x[frozen]))
        n_det = ev.K.shape[1]
        accepted = 0
        for moves, pencil in optimizer._tensor_pencils(ev, x):
            for j, entry in moves:
                delta = float(rng.uniform(-0.1, 0.1))
                if pencil.price(j, delta) is not None:
                    pencil.accept(j, delta)
                    x[entry] += delta
                    accepted += 1
            fresh = optimizer.TensorPencil(pencil.HO, pencil.y.copy())
            rows, entries = map(list, zip(*moves))
            assert np.array_equal(pencil.y[rows], x[entries])
            assert pencil.energy == pytest.approx(fresh.energy, rel=1e-12)
            nd = [pencil.num, pencil.den]
            assert nd == pytest.approx([fresh.num, fresh.den], rel=1e-12)
            incremental, formed = [pencil.hy, pencil.oy], [fresh.hy, fresh.oy]
            peak = np.max(np.abs(formed))
            assert np.max(np.abs(np.subtract(incremental, formed))) <= 1e-12 * peak
            for name, value in vars(pencil).items():
                if isinstance(value, np.ndarray):
                    assert value.size < n_det**2, name
        assert accepted > len(ev.engine.live_indices) // 2
        assert pencil.energy == pytest.approx(ev.energy(x).e, rel=1e-12)
        for name, value in vars(ev).items():
            if isinstance(value, np.ndarray):
                assert value.size < n_det**2, name

    def test_h6_sum_hybrid_matches_full_recompute(self, h6):
        # A sum hybrid's pencils carry the frozen pair addend as row 0; H6
        # from a start as the CLI builds it.
        basis, ham = h6
        ev = EnergyEvaluator(AnsatzSpec("3s+[2s]"), 12, basis, ham)
        rng = np.random.default_rng(17)
        pairs = cold_start(AmplitudeEngine(AnsatzSpec("2s"), 12, ev.engine.space), rng)
        x = optimizer._hybrid_start(ev.engine, pairs, rng)
        assert all(len(p.y) == 9 for _, p in optimizer._tensor_pencils(ev, x))
        fast, ref = _replica_pair(ev, x, seed=18)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=2)

    def test_cancelling_derivative_state_is_priced_zero(self, h4, monkeypatch):
        # Entry (1, 1) of the pair tensor on spin orbitals (0, 1) selects the
        # determinants with orbital 0 doubly occupied.  Zero factors leave a
        # nonzero cofactor on two of them only, |0 1 2 5> and |0 1 3 4>,
        # whose K columns are parallel; tensor (2, 2) tells them apart and
        # sets the ratio that cancels.  The entry's derivative state then
        # vanishes while its amplitudes change: its pencil column is zero, so
        # a move is priced exactly 0.0 with no full evaluation, and the
        # sweep still takes the reference's decisions.
        basis, ham = h4
        ev = EnergyEvaluator(AnsatzSpec("2s"), 8, basis, ham)
        engine = ev.engine

        def entry(key, a, b):
            return engine.offsets[engine.keys.index(key)] + 2 * a + b

        occ = occupations(engine.space)
        n1, n2 = (int(np.flatnonzero((occ == np.isin(np.arange(8), d)).all(axis=1))[0])
                  for d in ((0, 1, 2, 5), (0, 1, 3, 4)))
        K = ev.K.toarray()
        csf = int(np.flatnonzero(K[:, n1])[0])
        x = np.ones(engine.n_params)
        for key in ((0, 6), (0, 7), (2, 3), (4, 5)):
            x[entry(key, 1, 1)] = 0.0
        x[entry((2, 2), 1, 1)] = K[csf, n2]
        x[entry((2, 2), 0, 0)] = -K[csf, n1]
        t = engine.keys.index((0, 1))
        cofactor = cofactors_reference(engine, x)[t]
        selecting = engine.entry_table[t] == entry((0, 1), 1, 1)
        assert np.count_nonzero(cofactor[selecting]) == 2
        assert not ev.derivative_states(t, cofactor)[3].any()

        cancelling = entry((0, 1), 1, 1)
        _, pencil, j = next(r for r in _pencil_rows(ev, x) if r[0] == cancelling)
        assert not np.any(pencil.columns[j])
        x_new = x.copy()
        x_new[cancelling] += 0.3
        assert not np.array_equal(engine.amplitudes(x_new), engine.amplitudes(x))
        assert pencil.price(j, 0.3) == 0.0
        assert ev.energy(x_new).e == pytest.approx(ev.energy(x).e, rel=1e-12)

        events = []
        price = optimizer.TensorPencil.price
        full_energy = ev.energy

        def logged_price(pencil, j, delta):
            de = price(pencil, j, delta)
            events.append((not np.any(pencil.columns[j]), de))
            return de

        def logged_energy(x, *args, **kwargs):
            events.append("energy")
            return full_energy(x, *args, **kwargs)

        monkeypatch.setattr(optimizer.TensorPencil, "price", logged_price)
        monkeypatch.setattr(ev, "energy", logged_energy)
        fast, ref = _replica_pair(ev, x, seed=20)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=1)
        zero = [i for i, e in enumerate(events) if e != "energy" and e[0]]
        assert zero
        for i in zero:
            assert events[i][1] == 0.0 and events[i + 1] != "energy"

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_degenerate_proposals_abort_and_keep_the_state(self, h2, caplog):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        # Amplitudes of 30**10 need no rescaling; a step of order 1e300
        # overflows them, so every proposal is degenerate and draws no
        # uniform for its acceptance.  Entries that no determinant selects
        # get no proposal, and the ratio is over the others.
        x = np.full(ev.engine.n_params, 30.0)
        assert all(pencil is not None for _, pencil in optimizer._tensor_pencils(ev, x))
        selected = np.array([len(dets) > 0 for _, dets in entry_cells_loop(ev.engine)])
        assert 0 < selected.sum() < selected.size
        live = ev.engine.live_indices
        assert np.array_equal(live, ev.engine.active_indices[selected])
        fast, ref = _replica_pair(ev, x, seed=11, step=1e300)
        with caplog.at_level("WARNING", logger="cgtns.optimizer"):
            ratio = metropolis_sweep(fast, 0.01, ev, target_acceptance=None)
        aborted = [r for r in caplog.records if "aborted" in r.getMessage()]
        assert [r.args[0] for r in aborted] == live.tolist()
        assert ratio == 0.0
        assert np.array_equal(fast.x, x)
        assert fast.energy == ev.energy(x).e
        rng = np.random.default_rng(11)
        for _ in range(selected.sum()):
            rng.uniform(-1e300, 1e300)
        assert fast.rng.bit_generator.state == rng.bit_generator.state
        assert metropolis_sweep_full(ref, 0.01, ev, target_acceptance=None) == ratio
        assert np.array_equal(fast.x, ref.x)
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("kind,seed", [("3s[2s]", 6), ("3s", 2), ("3s+[2s]", 3)])
    def test_cli_run_matches_full_recompute_at_extreme_scales(
        self, tmp_path, monkeypatch, kind, seed
    ):
        # In each run the hot replica's squared norm leaves the trusted
        # range within a sweep (in three sweeps for 3s[2s] seed 6); the
        # local sums then carry an absolute error of order eps times the
        # peak, so the trusted norm floor must follow the accepted peak.
        # Each run renormalizes its scale by powers of two, and the energy
        # must equal the one recomputed after the sweep's renormalization;
        # 3s+[2s] renormalizes its two addends by one common power of two,
        # and its sweeps still price moves on the pencils.
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

        sweeps, reformed = [], set()  # reformed: sweeps with a full-path accept
        declined = []  # tensors whose moves all took the full path
        accept = optimizer.TensorPencil.accept
        pencils = optimizer._tensor_pencils
        sweep = optimizer.metropolis_sweep

        def counted_pencils(evaluator, x):
            for entries, pencil in pencils(evaluator, x):
                if pencil is None:
                    declined.append(len(sweeps))
                yield entries, pencil

        def counted(pencil, j, delta):
            if pencil._pending is None:
                reformed.add(len(sweeps))
            return accept(pencil, j, delta)

        def counted_sweep(*args, **kwargs):
            sweeps.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(optimizer.TensorPencil, "accept", counted)
        monkeypatch.setattr(optimizer, "_tensor_pencils", counted_pencils)
        monkeypatch.setattr(optimizer, "metropolis_sweep", counted_sweep)
        fast = run("fast")
        # Two stages, 2 replicas x 30 sweeps each, every tensor priced on
        # its pencil.  Some sweeps accept a proposal that left the trusted
        # norm range by its full evaluation and go on with the same pencil,
        # its sums formed anew, so the comparison below covers that path.
        assert len(sweeps) == 120
        assert not declined
        assert reformed
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
        x = _start_vector(ev.engine, 12, cli_like=True)
        assert [pencil for _, pencil in optimizer._tensor_pencils(ev, x)] == [None]
        calls = []
        full_energy = ev.energy

        def counted(x, *args, **kwargs):
            calls.append(1)
            return full_energy(x, *args, **kwargs)

        monkeypatch.setattr(ev, "energy", counted)
        fast, ref = _replica_pair(ev, x, seed=13)
        _assert_sweeps_match(ev, fast, ref, temperature=0.01, sweeps=2)
        # After the start's evaluation, reference and fast sweeps each
        # evaluate every proposal, one per live entry, in full.
        assert len(calls) == 1 + 4 * len(ev.engine.live_indices)

    def test_unscreened_sweep_evaluates_once(self, h4, monkeypatch):
        basis, ham = h4
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 8, basis, ham)
        x = _start_vector(ev.engine, 14, cli_like=True)
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

    def test_non_finite_values_refused(self):
        # Library callers get the check RunConfig.validate makes for the CLI.
        for field in ("t_first", "t_last", "step_size"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ConfigError, match=field):
                    PtConfig(**{field: value})
        with pytest.raises(ConfigError):
            PtConfig(step_size=math.inf, t_last=math.inf)

    def test_negative_seed_refused(self):
        with pytest.raises(ConfigError, match="seed"):
            PtConfig(seed=-1)

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

    @pytest.mark.parametrize("triple_kind", ["3s", "3s/si"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_warm_start_matches_loop_bitwise(self, triple_kind, n):
        # The whole-array warm start against the per-entry loop (H4, H6), on
        # pair vectors with negative entries and signed zeros.
        m = 2 * n
        space = enumerate_onvs(m, n, 0.0)
        engine = AmplitudeEngine(AnsatzSpec(triple_kind), m, space)
        n_pair = 4 * len(AnsatzSpec(engine.spec.pair_stage).pair_keys(m))
        rng = np.random.default_rng(n)
        for _ in range(5):
            pairs = rng.uniform(-1.5, 1.5, n_pair)
            pairs[rng.integers(n_pair, size=2)] = 0.0, -0.0
            warm = optimizer._warm_triples(engine, pairs)
            assert warm.tobytes() == warm_triples_loop(engine, pairs).tobytes()

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
        # Every triple entry is (1e-3 max|P|)**(1/T) times 1 + U(-0.1, 0.1),
        # so the triple addend is at most 1.1**T * 1e-3 max|P|.
        engine = hybrid_stage.evaluator.engine
        f = start[engine.entry_table]
        pair_peak = np.max(np.abs(np.prod(f[: engine.n_pair_rows], axis=0)))
        triple = np.prod(f[engine.n_pair_rows :], axis=0)
        bound = 1.1 ** len(engine.triple_keys) * 1e-3 * pair_peak
        assert np.all(triple != 0.0) and np.max(np.abs(triple)) <= bound


class TestRunStages:
    """The stage plan: pair stage, starts, and per-stage seeds."""

    @pytest.mark.parametrize("kind", ["3s+[2s]", "3s/si+[2s]", "3s+[2s]sel"])
    @pytest.mark.parametrize("name", ["h4", "h6"])
    def test_sum_hybrid_start_has_a_nonzero_triple_addend(self, name, kind):
        # Near-zero triple entries used to underflow the product of 56-364
        # triples to exactly zero, which froze the run at its pair stage.
        ints = parse_fcidump(FIXTURES / f"{name}.fcidump")
        space = enumerate_onvs(2 * ints.m_orb, ints.n_electrons, ints.ms2 / 2.0)
        basis = build_csf_basis(space, ints.ms2 / 2.0)
        ham = HamiltonianOperator(ints, space)
        sel = (2, 3, 4, 5) if kind.endswith("sel") else None
        spec = AnsatzSpec(kind, selected_sites=sel)
        config = PtConfig(n_replicas=2, sweeps=0, seed=1)
        _, hybrid_stage = run_stages(config, spec, basis, ham)
        engine = hybrid_stage.evaluator.engine
        f = hybrid_stage.best_x[engine.entry_table]
        pair = np.prod(f[: engine.n_pair_rows], axis=0)
        triple = np.prod(f[engine.n_pair_rows :], axis=0)
        assert np.all(np.isfinite(triple)) and np.all(triple != 0.0)
        assert np.max(np.abs(triple)) < 0.1 * np.max(np.abs(pair))

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
        K = basis.K.toarray()
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
            return float(d @ ev.gradient_from_weights(ev.K @ c, ev.K.toarray().T))

        t_num = optimize.brentq(
            line_gradient, t_star - 0.1, t_star + 0.1, xtol=1e-13
        )
        assert abs(t_num - t_star) < 1e-8
        assert line_energy(t_num) == pytest.approx(min(energies), abs=1e-12)


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
        _, e_sub = solve_at_key(ev, x, (0, 1))
        K = basis.K.toarray()
        assert e_sub == pytest.approx((K @ ham.matrix() @ K.T)[0, 0], abs=1e-10)

    def test_lowers_energy_and_matches_dense_oracle(self, h2):
        basis, ham = h2
        spec = AnsatzSpec("2s")
        ev = EnergyEvaluator(spec, 4, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(21))
        before = ev.energy(x).e
        key = (1, 2)
        x_new, e_sub = solve_at_key(ev, x, key)
        after = ev.energy(x_new).e
        assert after <= before + 1e-12
        assert after == pytest.approx(e_sub, abs=1e-9)

        # Independent dense pencil: basis states built from indicator tensors.
        K = basis.K.toarray()
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
                x, e_sub = solve_at_key(fresh, x, key)
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
        # A hybrid's pairs are frozen: a solve on one is refused, and the
        # refinement cycles over the triples only.
        basis, ham = h2
        for kind in ("3s[2s]", "3s+[2s]"):
            spec = AnsatzSpec(kind)
            x = identity(spec, 4)
            ev = EnergyEvaluator(spec, 4, basis, ham)
            with pytest.raises(FrozenTensorError):
                solve_at_key(ev, x, (0, 1))
            frozen = slice(None, ev.engine.active_indices[0])
            assert np.array_equal(subspace_refine(ev, x).x[frozen], x[frozen])


class TestTensorWiseRefine:
    """``subspace_refine`` on every kind: H4, ``run_stages`` with seed 1 and
    2 replicas x 10 sweeps, then solves over every active tensor.  ``3s[2s]``
    at seed 3 starts from derivative states of very unequal norms, where a
    solve without row scaling raised the energy by 1.4e-7 Ha."""

    @pytest.fixture(
        scope="class",
        params=[(kind, 1) for kind in ANSATZ_KINDS] + [("3s[2s]", 3)],
        ids=lambda p: p[0] if p[1] == 1 else f"{p[0]}-seed{p[1]}",
    )
    def refined(self, request, h4):
        basis, ham = h4
        e0, c0 = exact_diagonalize(ham, basis)
        kind, seed = request.param
        sites = None
        if kind.endswith("sel"):
            sites = select_sites(orbital_occupations(ham, c0 @ basis.K))
        spec = AnsatzSpec(kind, selected_sites=sites)
        config = PtConfig(n_replicas=2, sweeps=10, seed=seed)
        *_, ensemble = run_stages(config, spec, basis, ham)
        steps, solves = [], []

        def solve(evaluator, x, t, *args):
            x_new, e_sub = gradient_subspace_solve(evaluator, x, t, *args)
            steps.append((evaluator.energy(x).e, evaluator.energy(x_new).e, e_sub))
            solves.append((x.copy(), t, x_new))
            return x_new, e_sub

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "gradient_subspace_solve", solve)
            result = subspace_refine(ensemble.evaluator, ensemble.best_x)
        return SimpleNamespace(
            e0=e0, ensemble=ensemble, result=result, steps=np.array(steps),
            solves=solves,
        )

    def test_refine_matches_reference_bitwise(self, refined):
        # The cached environments change no bit of the refinement.
        evaluator, start = refined.ensemble.evaluator, refined.ensemble.best_x
        x, energy, passes, converged = subspace_refine_reference(evaluator, start)
        result = refined.result
        assert result.x.tobytes() == x.tobytes()
        assert result.energy == energy
        assert (result.n_iterations, result.converged) == (passes, converged)

    def test_single_solves_match_reference_bitwise(self, refined):
        # One solve without a sweep, at the search's best vector.
        evaluator, x = refined.ensemble.evaluator, refined.ensemble.best_x
        engine = evaluator.engine
        for key in engine.keys[engine.n_frozen_tensors :]:
            x_new, e_sub = solve_at_key(evaluator, x, key)
            x_ref, e_ref = subspace_solve_reference(evaluator, x, key)
            assert x_new.tobytes() == x_ref.tobytes()
            assert e_sub == e_ref

    def test_solved_tensors_follow_the_sign_rule(self, refined):
        # A product tensor's new entry of largest magnitude is positive; a
        # sum hybrid's entries are ratios, which carry no sign choice.  With
        # scipy's eigh and the same rule, the energy agrees to rounding and
        # the tensor to the eigenvector's conditioning (at most 5.4e-10 of
        # its peak over these H4 solves).
        evaluator = refined.ensemble.evaluator
        engine = evaluator.engine
        for x, t, x_new in refined.solves:
            key = engine.keys[t]
            block = slice(engine.offsets[t], engine.offsets[t] + engine.sizes[t])
            tensor = x_new[block]
            if not engine.sum_mode:
                assert tensor[np.argmax(np.abs(tensor))] > 0
            x_ref, e_ref = subspace_solve_reference(evaluator, x, key, eigh=linalg.eigh)
            ref = x_ref[block]
            assert np.max(np.abs(tensor - ref)) <= 1e-8 * np.max(np.abs(ref))
            e_sub = solve_at_key(evaluator, x, key)[1]
            assert abs(e_sub - e_ref) <= 1e-12 * abs(e_ref)

    def test_no_solve_raises_the_energy(self, refined):
        engine = refined.ensemble.evaluator.engine
        before, after, e_sub = refined.steps.T
        assert len(before) >= len(engine.keys) - engine.n_frozen_tensors
        assert np.max(after - before) <= 1e-12
        assert np.max(np.abs(after - e_sub)) <= 1e-9

    def test_result_between_oracle_and_search_best(self, refined):
        result, evaluator = refined.result, refined.ensemble.evaluator
        assert refined.e0 - 1e-9 <= result.energy <= refined.ensemble.best_energy
        assert result.energy == pytest.approx(evaluator.energy(result.x).e, abs=1e-9)
        frozen = slice(None, evaluator.engine.active_indices[0])
        assert np.array_equal(result.x[frozen], refined.ensemble.best_x[frozen])

    def test_pair_solve_needs_an_active_pair(self, refined):
        # The hybrids freeze their pairs, and the pure triples have none.
        evaluator, x = refined.ensemble.evaluator, refined.result.x
        spec = evaluator.spec
        if not spec.has_triples:
            solve_at_key(evaluator, x, (0, 1))
            return
        if not spec.pairs_frozen:
            assert (0, 1) not in evaluator.engine.keys
            return
        with pytest.raises(FrozenTensorError):
            solve_at_key(evaluator, x, (0, 1))

    @pytest.mark.parametrize(
        "system,kind",
        [("h4", "2s"), ("h4", "3s"), ("h4", "3s[2s]"), ("h4", "3s+[2s]"), ("h6", "2s")],
    )
    def test_gauge_skewed_start_never_raises_the_energy(
        self, request, monkeypatch, system, kind
    ):
        # Every other active tensor times 1e4 and the one after it times
        # 1e-4 leave the amplitudes and the energy, but the pencil rows of
        # neighbouring tensors then differ by 1e8.
        basis, ham = request.getfixturevalue(system)
        spec = AnsatzSpec(kind)
        config = PtConfig(n_replicas=2, sweeps=5, seed=1)
        *_, ensemble = run_stages(config, spec, basis, ham)
        evaluator, x = ensemble.evaluator, ensemble.best_x
        engine = evaluator.engine
        skewed = x.copy()
        active = range(engine.n_frozen_tensors, len(engine.keys))
        factors = [1e4, 1e-4] * (len(active) // 2) + [1.0] * (len(active) % 2)
        for t, factor in zip(active, factors):
            skewed[engine.offsets[t] : engine.offsets[t] + engine.sizes[t]] *= factor
        assert not np.array_equal(skewed, x)
        assert np.allclose(
            engine.amplitudes(skewed), engine.amplitudes(x), rtol=1e-12, atol=0
        )
        e_start = evaluator.energy(x).e
        assert evaluator.energy(skewed).e == pytest.approx(e_start, abs=1e-12)
        steps = []

        def solve(evaluator, x, t, *args):
            x_new, e_sub = gradient_subspace_solve(evaluator, x, t, *args)
            steps.append((evaluator.energy(x).e, evaluator.energy(x_new).e))
            return x_new, e_sub

        monkeypatch.setattr(optimizer, "gradient_subspace_solve", solve)
        monkeypatch.setattr(optimizer, "SUBSPACE_PASSES", 3)
        subspace_refine(evaluator, skewed)
        before, after = np.array(steps).T
        assert len(before) >= len(engine.keys) - engine.n_frozen_tensors
        assert np.max(after - before) <= 1e-12

    def test_zero_pair_addend_declines(self, h4):
        # With an all-zero pair tensor the sum hybrid's pair addend vanishes,
        # so every triple solve is declined: x and its energy come back.
        basis, ham = h4
        ev = EnergyEvaluator(AnsatzSpec("3s+[2s]"), 8, basis, ham)
        x = cold_start(ev.engine, np.random.default_rng(2))
        x[:4] = 0.0
        x_new, e_sub = solve_at_key(ev, x, ev.engine.triple_keys[0])
        assert x_new is not x and np.array_equal(x_new, x)
        assert e_sub == ev.energy(x).e
        result = subspace_refine(ev, x)
        assert np.array_equal(result.x, x)
        assert result.n_iterations == 1 and result.converged
        assert np.isfinite(result.energy) and result.energy == ev.energy(x).e


class TestSweepEnvironment:
    """The sweep environments of a pass (the left and right cofactor
    products it hands its solves), the direct LAPACK call and the pencil's
    finiteness check."""

    @pytest.mark.parametrize("kind", ["3s[2s]", "3s+[2s]"])
    def test_h6_hybrid_refine_matches_reference_bitwise(self, kind, monkeypatch):
        # The second pass recomputes its right products from its start
        # vector; frozen pairs are set off one.
        ints = parse_fcidump(FIXTURES / "h6.fcidump")
        space = enumerate_onvs(12, 6, 0.0)
        basis = build_csf_basis(space, 0.0)
        ev = EnergyEvaluator(AnsatzSpec(kind), 12, basis, HamiltonianOperator(ints, space))
        rng = np.random.default_rng(1)
        x = cold_start(ev.engine, rng)
        frozen = slice(None, ev.engine.active_indices[0])
        x[frozen] = rng.uniform(0.5, 1.5, len(x[frozen]))
        monkeypatch.setattr(optimizer, "SUBSPACE_PASSES", 2)
        result = subspace_refine(ev, x)
        x_ref, energy, passes, converged = subspace_refine_reference(ev, x)
        assert result.n_iterations == passes == 2
        assert result.x.tobytes() == x_ref.tobytes()
        assert result.energy == energy
        assert result.converged == converged

    def test_non_finite_pencil_is_degenerate(self, h4):
        # The product of two 1e200 entries overflows in the cofactors of a
        # later tensor, and a NaN entry of another tensor makes its
        # cofactors NaN; numpy's eigh returns NaNs without an error here.
        basis, ham = h4
        ev = EnergyEvaluator(AnsatzSpec("2s"), 8, basis, ham)
        key = ev.engine.keys[3]
        x = np.ones(ev.engine.n_params)
        x[5] = x[9] = 1e200
        y = np.ones(ev.engine.n_params)
        y[0] = np.nan
        for bad in (x, y):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DegenerateStateError, match="not finite"):
                    solve_at_key(ev, bad, key)

    def test_unknown_and_frozen_keys_raise_before_any_work(self, h4):
        # A frozen row, a row outside the tensors, and pair weights that a
        # sum hybrid lacks or a product is given: every input is NaN, so
        # only the checks can raise.
        basis, ham = h4
        for kind in ("3s[2s]", "3s+[2s]"):
            ev = EnergyEvaluator(AnsatzSpec(kind), 8, basis, ham)
            engine = ev.engine
            x = np.full(engine.n_params, np.nan)
            cofactor = np.full(engine.space.size, np.nan)
            weights = np.full(basis.n_csfs, np.nan) if engine.sum_mode else None
            with pytest.raises(FrozenTensorError):
                gradient_subspace_solve(ev, x, 0, cofactor, weights)
            for t in (len(engine.keys), -1):
                with pytest.raises(DimensionError, match="no tensor row"):
                    gradient_subspace_solve(ev, x, t, cofactor, weights)
            wrong = None if engine.sum_mode else np.full(basis.n_csfs, np.nan)
            with pytest.raises(DimensionError, match="pair weights"):
                gradient_subspace_solve(ev, x, engine.n_frozen_tensors, cofactor, wrong)


class TestRefinerContract:
    """Every refinement runs on the caller's evaluator and flat vector."""

    REFINERS = [bfgs_refine, subspace_refine]

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

    def test_negative_selected_site_rejected_on_load(self, h2, tmp_path):
        basis, ham = h2
        spec = AnsatzSpec("3s[2s]sel", selected_sites=(1, 2))
        ev = EnergyEvaluator(spec, 4, basis, ham)
        config = PtConfig(n_replicas=2, sweeps=1, swap_interval=2, seed=3)
        ensemble = run_parallel_tempering(
            config, ev, cold_start(ev.engine, np.random.default_rng(3))
        )
        ckpt = tmp_path / "sel.json"
        save_checkpoint(ensemble, ckpt)
        doc = json.loads(ckpt.read_text())
        assert doc["ansatz"]["selected_sites"] == [1, 2]
        doc["ansatz"]["selected_sites"] = [-1, 2]
        ckpt.write_text(json.dumps(doc))
        with pytest.raises(DimensionError, match="non-negative integer"):
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
