"""The three benchmark workloads: their inputs, commands and checks.

Each workload stresses one layer that later optimisations target and keeps
that layer small in the other two:

* ``h6-hybrid-sweeps`` is bound by Metropolis sweeps (one full energy
  evaluation per proposed move);
* ``h4-subspace-refine`` is bound by the subspace refinement, which builds
  an ``EnergyEvaluator`` and a Jacobian for each of its 1 800 solves, with
  almost no Metropolis moves;
* ``h8-oracle`` is bound by the dense determinant Hamiltonian and its
  eigensolver, with no sweeps at all.

Run workloads ignore the workload seed: every run covers the same fixed
panel of optimizer seeds, one command each, in the same order.  Final
energies of a stochastic search at a small sweep budget are spread widely
across optimizer seeds (bimodal on H4), so the quality metric is the median
error over the whole panel: the same configurations on every run, which
keeps ``error_mha`` comparable between runs and between commits.  Only the
``h8-oracle`` inputs depend on the seed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "cgtns" / "fixtures"
MAKE_FIXTURES = ROOT / "tools" / "make_fixtures.py"

#: Optimizer seeds every run of a run workload covers, one command each.
SEED_PANEL = (1, 2, 3)
#: Tolerances of the correctness checks, in Hartree.
ORACLE_TOL = 1e-8
VARIATIONAL_TOL = 1e-9
#: Relative tolerance for re-evaluating a reloaded checkpoint's best energy.
RELOAD_RTOL = 1e-10


def program_env() -> dict:
    """Environment for child processes: the checkout's ``src`` comes first."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def import_cgtns():
    """Import the package from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import cgtns

    if Path(cgtns.__file__).resolve().parent != (SRC / "cgtns").resolve():
        raise ImportError(f"cgtns resolved to {cgtns.__file__}, not {SRC}")
    return cgtns


def build_problem(cgtns, integrals):
    """Parse, enumerate determinants, build the CSF basis and the Hamiltonian
    operator, as the CLI does before every command: (ints, space, basis, ham)."""
    ints = cgtns.parse_fcidump(integrals)
    space = cgtns.enumerate_onvs(2 * ints.m_orb, ints.n_electrons, ints.ms2 / 2.0)
    basis = cgtns.build_csf_basis(space, ints.ms2 / 2.0)
    return ints, space, basis, cgtns.HamiltonianOperator(ints, space)


def load_make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", MAKE_FIXTURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Inputs:
    """What one run of a workload feeds the program."""

    integrals: Path
    config: Path | None
    seeds: list[int]
    ansatz: str | None
    replicas: int = 0
    sweeps: int = 0
    e_reference: float = math.nan
    n_det: int = 0


@dataclass
class Check:
    ok: bool
    error_ha: float
    message: str = ""


class RunWorkload:
    """``cgtns run`` on a bundled fixture with a small, fixed sweep budget."""

    def __init__(self, name, fixture, ansatz, replicas, sweeps, extra, smoke_sweeps):
        self.name = name
        self.fixture = fixture
        self.ansatz = ansatz
        self.replicas = replicas
        self.sweeps = sweeps
        self.extra = extra
        self.smoke_sweeps = smoke_sweeps

    def prepare(self, seed: int, work: Path, smoke: bool) -> Inputs:
        sweeps = self.smoke_sweeps if smoke else self.sweeps
        integrals = FIXTURES / f"{self.fixture}.fcidump"
        config = work / "run.cfg"
        lines = [
            f"integrals = {integrals}",
            f"ansatz = {self.ansatz}",
            f"replicas = {self.replicas}",
            f"sweeps = {sweeps}",
            *(f"{k} = {v}" for k, v in self.extra.items()),
        ]
        config.write_text("\n".join(lines) + "\n")
        provenance = json.loads((FIXTURES / "provenance.json").read_text())
        system = provenance["systems"][self.fixture]
        return Inputs(
            integrals=integrals,
            config=config,
            seeds=list(SEED_PANEL),
            ansatz=self.ansatz,
            replicas=self.replicas,
            sweeps=sweeps,
            e_reference=system["e_fci"],
        )

    def argv(self, inputs: Inputs, i: int, out: Path) -> list[str]:
        seed = inputs.seeds[i % len(inputs.seeds)]
        return ["run", "--config", str(inputs.config), "--seed", str(seed),
                "--out", str(out)]

    def check(self, inputs: Inputs, out: Path, problem) -> Check:
        """Oracle, variational bound, trace length and checkpoint reload."""
        record = json.loads((out / "record.json").read_text())
        e_oracle = record["e_oracle"]
        final = record["final_energy"]
        error = final - e_oracle
        if abs(e_oracle - inputs.e_reference) > ORACLE_TOL:
            return Check(False, error, f"oracle {e_oracle!r} != e_fci {inputs.e_reference!r}")
        if final < e_oracle - VARIATIONAL_TOL:
            return Check(False, error, f"final energy {final!r} below the oracle")
        rows = inputs.replicas * inputs.sweeps
        for trace in sorted(out.glob("*trace.csv")):
            n = len(trace.read_text().splitlines()) - 1
            if n != rows:
                return Check(False, error, f"{trace.name} has {n} rows, expected {rows}")
        cgtns, basis, ham = problem
        stored = json.loads((out / "checkpoint.json").read_text())["best_energy"]
        ensemble = cgtns.optimizer.load_checkpoint(out / "checkpoint.json", basis, ham)
        again = ensemble.evaluator.energy(ensemble.best_x).e
        if abs(again - stored) > RELOAD_RTOL * abs(stored):
            return Check(False, error, f"reloaded best_x gives {again!r}, stored {stored!r}")
        if final > stored + VARIATIONAL_TOL:
            return Check(False, error, "refinement raised the energy above the search's best")
        return Check(True, error)

    def probe_args(self, inputs: Inputs) -> list[str]:
        return ["--integrals", str(inputs.integrals), "--ansatz", inputs.ansatz]

    def load_problem(self, inputs: Inputs):
        """The library objects the checks need, built once per run."""
        cgtns = import_cgtns()
        _, _, basis, ham = build_problem(cgtns, inputs.integrals)
        return cgtns, basis, ham


class OracleWorkload:
    """``cgtns oracle`` on a generated linear H8 chain, 5 electrons, MS2 = 1.

    1 568 determinants and 1 008 doublet CSFs: large enough that the dense
    determinant Hamiltonian and its eigensolver dominate, small enough for
    several commands per run.  (Six electrons at MS2 = 0 give 3 136
    determinants and a command four times as long; MS2 = 2 fails in
    ``build_csf_basis``.)  The seed picks the bond length from a short list,
    so the independent full-CI reference (seconds to tens of seconds of pure
    Python) is computed once per geometry and cached in the checkout's
    scratch directory.
    """

    name = "h8-oracle"
    n_atoms = 8
    ms2 = 1
    spacings = (1.75, 1.85)

    def prepare(self, seed: int, work: Path, smoke: bool) -> Inputs:
        electrons = 3 if smoke else 5
        spacing = self.spacings[seed % len(self.spacings)]
        mf = load_make_fixtures()
        centers = [(0.0, 0.0, spacing * k) for k in range(self.n_atoms)]
        basis = mf.Basis(centers)
        S, h_ao, eri_ao = mf.ao_integrals(basis)
        h, g = mf.transform(h_ao, eri_ao, mf.lowdin_orbitals(S))
        e_core = mf.nuclear_repulsion(centers)
        integrals = work / "h8.fcidump"
        mf.write_fcidump(integrals, h, g, e_core, electrons, self.ms2)

        cache = ROOT / ".bench_out" / "cache" / f"h8-{electrons}e-ms2{self.ms2}-{spacing:.3f}.json"
        if cache.exists():
            ref = json.loads(cache.read_text())
        else:
            e_fci, n_det = mf.fci_ground_state(h, g, e_core, electrons, self.ms2)
            ref = {"e_fci": e_fci, "n_det": n_det, "spacing_bohr": spacing}
            cache.parent.mkdir(parents=True, exist_ok=True)
            tmp = cache.with_suffix(".tmp")
            tmp.write_text(json.dumps(ref) + "\n")
            tmp.replace(cache)
        return Inputs(integrals=integrals, config=None, seeds=[seed], ansatz=None,
                      e_reference=ref["e_fci"], n_det=ref["n_det"])

    def argv(self, inputs: Inputs, i: int, out: Path) -> list[str]:
        out.mkdir(parents=True, exist_ok=True)
        return ["oracle", "--integrals", str(inputs.integrals),
                "--oracle-out", str(out / "oracle.json")]

    def check(self, inputs: Inputs, out: Path, problem) -> Check:
        """Both bases agree with each other and with the independent reference.

        The reported error is the largest disagreement, floored at the check
        tolerance: below it the differences are rounding, not quality.
        """
        doc = json.loads((out / "oracle.json").read_text())
        e_det, e_csf = doc["e0_determinant_basis"], doc["e0_csf_basis"]
        spread = max(abs(e_det - e_csf), abs(e_det - inputs.e_reference),
                     abs(e_csf - inputs.e_reference))
        error = max(spread, ORACLE_TOL)
        if doc["determinants"] != inputs.n_det:
            return Check(False, error, f"{doc['determinants']} determinants, expected {inputs.n_det}")
        if spread > ORACLE_TOL:
            return Check(False, error, f"E0 disagree by {spread:.3e} Ha")
        return Check(True, error)

    def probe_args(self, inputs: Inputs) -> list[str]:
        return ["--integrals", str(inputs.integrals)]

    def load_problem(self, inputs: Inputs):
        return None


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload("h6-hybrid-sweeps", "h6", "3s[2s]", replicas=2, sweeps=2,
                    extra={"swap_interval": 1}, smoke_sweeps=1),
        RunWorkload("h4-subspace-refine", "h4", "2s", replicas=2, sweeps=20,
                    extra={"refine": "subspace"}, smoke_sweeps=2),
        OracleWorkload(),
    )
}
