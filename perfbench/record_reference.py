"""Record the reference check lists that ``run.py`` compares every report with.

    python3 perfbench/record_reference.py

Runs every op of every workload once for the default and the held-out seed
and writes ``perfbench/reference.json``: for each op and input digest the
list of (check name, pass, detail), and for each op label the check names,
which do not depend on the seed.  Record only from a commit whose reports are
known to be right; the file is meant to stay fixed while the program changes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.import_resloc()
    from resloc import cli

    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

    exact, names = {}, {}
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for workload in WORKLOADS:
                ops, digests = run.set_up(workload, seed)
                for op in ops:
                    rc = cli.main(list(op.argv) + ["--output", "report.out"])
                    with open("report.out") as fh:
                        report = json.load(fh)
                    if rc != 0 or not report["pass"]:
                        print(f"{workload} seed {seed}: {op.label} failed", file=sys.stderr)
                        return 1
                    checks = [[c["name"], c["pass"], c["detail"]] for c in report["checks"]]
                    exact[run.reference_key(op, digests[op.source])] = checks
                    names[op.label] = [c[0] for c in checks]
                    print(f"seed {seed} {workload} {op.label}: {len(checks)} checks")
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir)
    with open(run.REFERENCE, "w") as fh:
        json.dump({"seeds": [DEFAULT_SEED, HELD_OUT_SEED], "exact": exact, "names": names},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
