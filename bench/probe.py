"""Set-up probe: time, in a fresh process, what every command pays first.

Imports the package, parses the FCIDUMP, enumerates determinants, builds the
CSF basis and the dense determinant Hamiltonian and, for run workloads, the
workload's ``EnergyEvaluator``.  Prints ``{"setup_s": ...}`` on stdout.

    PYTHONPATH=src python3 bench/probe.py --integrals FILE [--ansatz KIND]
"""

import argparse
import json
import time

T0 = time.perf_counter()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--integrals", required=True)
    parser.add_argument("--ansatz")
    args = parser.parse_args()
    from workloads import build_problem, import_cgtns

    cgtns = import_cgtns()
    _, space, basis, ham = build_problem(cgtns, args.integrals)
    ham.matrix()
    if args.ansatz:
        cgtns.EnergyEvaluator(cgtns.AnsatzSpec(args.ansatz), space.m, basis, ham)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
