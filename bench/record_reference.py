"""Record the reference output digests that runs compare against.

    python3 bench/record_reference.py --seeds 0-15

Runs every workload once per seed, checks every op, and stores the sha256
of each artifact under ``digests`` in bench/reference.json. A run then
reports ``outputs_identical`` for its seed against these. Re-record only
when outputs are meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from workloads import WORKLOADS, write_inputs


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-15")
    args = parser.parse_args(argv)

    cli = run.import_cli()
    reference = run.load_reference()
    digests = reference.setdefault("digests", {})
    workdir = run.OUT_DIR / "work-reference"
    failed = 0
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            write_inputs(workload, seed, str(workdir))
            ops = workload.ops(str(workdir), workload.size, reference)
            runs = [run.run_op(cli, op, workdir, None, i) for i, op in enumerate(ops)]
            problems = [p for r in runs for p in r.problems]
            failed += bool(problems)
            digests.setdefault(name, {})[str(seed)] = {
                k: v for r in runs for k, v in r.digests.items()
            }
            print(name, seed, "ok" if not problems else problems, flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
