"""Golden artifacts: the exit code and the SHA-256 of every file a fixed
panel of ``cgtns`` commands writes, kept in ``tests/golden/manifest.json``.

    python tools/golden.py            # run the panel, compare with the manifest
    python tools/golden.py --update   # run the panel, rewrite the manifest

The panel: H4 with every ansatz kind at seeds 1-3 (2 replicas x 3 sweeps);
H6 ``2s``, ``3s[2s]`` and ``3s+[2s]`` at seed 1 (2 x 2, ``refine =
subspace``); ``cgtns oracle`` on H2, H4, H6 and the generated 5-electron H8
chain at 1.75 bohr; ``sweeps = 0`` (exit 2) and an oracle with
``dense_limit = 10`` (exit 3).  No plain configuration reaches exit 4 in
under a second, so the panel has no exit-4 case.  Each command runs in
process through ``cli.main``.

``config.txt`` is hashed with the values of its ``integrals`` and ``out``
lines masked, as both hold absolute paths.  The bytes depend on numpy and
on the BLAS build, core and thread count, so the manifest records them
(``platform_info``).  Where any of them differs, only the exit codes and
the energies are compared, within ``ENERGY_TOL``.  The exit-2 and exit-3
cases write no file, and the oracle energies and ``e_oracle`` take no
accept/reject decision; the 33 tempering runs' ``final_energy`` and
``best_energy`` follow their Metropolis and swap decisions, and a decision
that flips on rounding moves them by far more than ``ENERGY_TOL``.  With
OpenBLAS forced to the Haswell, Sandybridge and Katmai kernels
(``OPENBLAS_CORETYPE``) on a SkylakeX machine, 34 of the 39 commands
changed bytes and no energy moved by more than 2e-14 Ha.  The check
prints, per command, which comparison it made, names each changed file,
and exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
FIXTURES = ROOT / "src" / "cgtns" / "fixtures"
#: Energies compared when the platform differs, per artifact name.
ENERGY_KEYS = {
    "record.json": ("final_energy", "e_oracle"),
    "checkpoint.json": ("best_energy",),
    "stage1_checkpoint.json": ("best_energy",),
    "oracle.json": ("e0_determinant_basis", "e0_csf_basis"),
}
#: Largest energy difference (Ha) tolerated across platforms.
ENERGY_TOL = 1e-10
#: ``config.txt`` keys whose values are absolute paths.
MASKED_KEYS = ("integrals", "out")
H8_SPACING = 1.75


@dataclass(frozen=True)
class Case:
    """One command of the panel: ``cgtns <command>`` on ``system`` with a
    configuration file holding ``config`` and extra arguments ``args``."""

    name: str
    command: str
    system: str
    config: str
    args: tuple[str, ...] = ()


def cases() -> list[Case]:
    from cgtns.correlators import ANSATZ_KINDS

    h4 = "replicas = 2\nsweeps = 3\n"
    h6 = "replicas = 2\nsweeps = 2\nrefine = subspace\n"
    return [
        *(
            Case(f"run-h4-{kind}-seed{seed}", "run", "h4", h4,
                 ("--ansatz", kind, "--seed", str(seed)))
            for kind in ANSATZ_KINDS
            for seed in (1, 2, 3)
        ),
        *(
            Case(f"run-h6-{kind}-seed1", "run", "h6", h6, ("--ansatz", kind, "--seed", "1"))
            for kind in ("2s", "3s[2s]", "3s+[2s]")
        ),
        *(
            Case(f"oracle-{system}", "oracle", system, "")
            for system in ("h2", "h4", "h6", "h8_chain")
        ),
        Case("run-h4-sweeps0", "run", "h4", "sweeps = 0\n"),
        Case("oracle-h4-dense10", "oracle", "h4", "dense_limit = 10\n"),
    ]


def platform_info() -> dict:
    """numpy's version and its BLAS library's name, version, core and
    thread count; a field that cannot be read is None."""
    import numpy

    info = {"numpy": numpy.__version__, "blas": None, "blas_version": None,
            "blas_core": None, "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        return info
    info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (
            ("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")
        ):
            if hasattr(handle, f"{prefix}get_corename{suffix}"):
                corename = getattr(handle, f"{prefix}get_corename{suffix}")
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                threads = getattr(handle, f"{prefix}get_num_threads{suffix}")
                threads.argtypes, threads.restype = [], ctypes.c_int
                info["blas_core"] = corename().decode()
                info["blas_threads"] = threads()
                return info
    return info


def _masked(name: str, data: bytes) -> bytes:
    if name != "config.txt":
        return data
    lines = data.decode().splitlines(keepends=True)
    keys = tuple(f"{key} = " for key in MASKED_KEYS)
    return "".join(
        line.split(" = ", 1)[0] + " = *\n" if line.startswith(keys) else line for line in lines
    ).encode()


def run_case(case: Case, work: Path, integrals: Path) -> dict:
    """Run one command in process; its exit code, the SHA-256 of every file
    it wrote, and the energies those files hold."""
    from cgtns import cli

    work.mkdir(parents=True)
    (work / "run.cfg").write_text(case.config)
    out = work / "out"
    argv = [case.command, "--config", str(work / "run.cfg"), "--integrals", str(integrals)]
    if case.command == "run":
        argv += ["--out", str(out), *case.args]
    else:
        out.mkdir()
        argv += ["--oracle-out", str(out / "oracle.json"), *case.args]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    files, energies = {}, {}
    for path in sorted(out.rglob("*")) if out.exists() else ():
        name = path.relative_to(out).as_posix()
        data = path.read_bytes()
        files[name] = hashlib.sha256(_masked(name, data)).hexdigest()
        if name in ENERGY_KEYS:
            doc = json.loads(data)
            energies[name] = {key: doc[key] for key in ENERGY_KEYS[name]}
    return {"exit": code, "files": files, "energies": energies}


def run_panel(work: Path) -> dict:
    """Every case's result by name, run in ``work``, which must not exist."""
    work.mkdir(parents=True)
    script = ROOT / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    paths = {name: FIXTURES / f"{name}.fcidump" for name in ("h2", "h4", "h6")}
    paths["h8_chain"] = make_fixtures.write_h8_chain(work / "h8_chain.fcidump", H8_SPACING)
    return {case.name: run_case(case, work / case.name, paths[case.system]) for case in cases()}


def platform_differences(recorded: dict) -> list[str]:
    """Names of the platform fields that differ from ``recorded``."""
    current = platform_info()
    keys = sorted(set(recorded) | set(current))
    return [key for key in keys if recorded.get(key) != current.get(key)]


def byte_mismatches(expected: dict, observed: dict) -> list[str]:
    """One line per case whose exit code or files differ, naming each
    changed, missing or extra file."""
    lines = []
    for name in sorted(set(expected) | set(observed)):
        want, got = expected.get(name), observed.get(name)
        if want is None or got is None:
            lines.append(f"{name}: {'not in the manifest' if want is None else 'not run'}")
            continue
        if want["exit"] != got["exit"]:
            lines.append(f"{name}: exit {got['exit']}, manifest {want['exit']}")
        changed = [f for f in sorted(set(want["files"]) | set(got["files"]))
                   if want["files"].get(f) != got["files"].get(f)]
        if changed:
            lines.append(f"{name}: changed files {', '.join(changed)}")
    return lines


def energy_mismatches(expected: dict, observed: dict) -> list[str]:
    """One line per case whose exit code differs or whose energies differ by
    more than ``ENERGY_TOL`` or are missing."""
    lines = []
    for name in sorted(set(expected) | set(observed)):
        want, got = expected.get(name), observed.get(name)
        if want is None or got is None:
            lines.append(f"{name}: {'not in the manifest' if want is None else 'not run'}")
            continue
        if want["exit"] != got["exit"]:
            lines.append(f"{name}: exit {got['exit']}, manifest {want['exit']}")
        for artifact in sorted(set(want["energies"]) | set(got["energies"])):
            a, b = want["energies"].get(artifact, {}), got["energies"].get(artifact, {})
            for key in sorted(set(a) | set(b)):
                x, y = a.get(key), b.get(key)
                if x is None or y is None or not abs(x - y) <= ENERGY_TOL:
                    lines.append(f"{name}: {artifact} {key} = {y!r}, manifest {x!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    work = ROOT / ".golden_out"  # emptied first
    shutil.rmtree(work, ignore_errors=True)
    observed = run_panel(work)
    if args.update:
        MANIFEST.parent.mkdir(parents=True, exist_ok=True)
        doc = {"platform": platform_info(), "cases": observed}
        MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(observed)} cases to {MANIFEST}")
        return 0
    manifest = json.loads(MANIFEST.read_text())
    differs = platform_differences(manifest["platform"])
    compare = energy_mismatches if differs else byte_mismatches
    if differs:
        print(f"platform differs in {', '.join(differs)}: comparing exit codes and energies")
    failures = compare(manifest["cases"], observed)
    for name in sorted(set(manifest["cases"]) | set(observed)):
        bad = [line for line in failures if line.startswith(f"{name}:")]
        print(f"{name}: {'energies' if differs else 'bytes'} {'MISMATCH' if bad else 'ok'}")
        for line in bad:
            print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
