"""Run a benchmark workload's CLI calls in fresh processes; report each call's faults and CPU time.

Usage, from the root of a source checkout:

    python3 tools/fresh_faults.py --workload clf-20k --seed 1 --pairs 10 --src . --src ../other

The workload's ops and inputs come from ``bench/workloads.py``: a set-up
process writes the inputs with ``write_inputs`` into one temporary directory
per source tree, where that tree's artifacts land, and lists the ops.
``bench/`` is only read. Each pair runs every op of the workload, in order,
as ``python -m boostkit`` in a fresh child process per op, once for each
tree given by ``--src`` (its ``src/`` on ``PYTHONPATH``); the first tree of
a pair rotates from pair to pair, so two trees alternate. This process
imports no numpy and holds no inputs: a child's ``ru_maxrss`` counts the
memory it shares with this process until its exec.

One JSON line is printed per op run: the tree, the pair, the op's metric
name, the exit code, the wall time, and ``ru_minflt``, ``ru_stime``,
``ru_utime`` and ``ru_maxrss`` (KiB) as ``os.wait4`` reports them for the
child and the children it reaped (a stump search's sibling process), then
the sha256 of each artifact (and of the output of an op whose output is its
artifact). The exit status is 1 if any op exited non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# run as: python -c SETUP bench workload seed workdir...; prints the input
# file names and, per workdir, its ops
SETUP = """
import json, shutil, sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS, write_inputs
workload, seed, workdirs = WORKLOADS[sys.argv[2]], int(sys.argv[3]), sys.argv[4:]
with open(f"{sys.argv[1]}/reference.json", encoding="utf-8") as fh:
    reference = json.load(fh)
names = write_inputs(workload, seed, workdirs[0])
for workdir in workdirs[1:]:
    for name in names:
        shutil.copy(f"{workdirs[0]}/{name}", workdir)
ops = [[{"metric": op.metric, "argv": op.argv, "artifacts": op.artifacts,
         "stdout_is_artifact": op.stdout_is_artifact}
        for op in workload.ops(workdir, workload.size, reference)] for workdir in workdirs]
print(json.dumps({"inputs": names, "ops": ops}))
"""


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def run_op(src: Path, op: dict, workdir: Path) -> dict:
    """One op in a fresh ``python -m boostkit`` child, with the source tree src."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    stdout = workdir / f"{op['metric']}.stdout"
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "boostkit", *op["argv"]], cwd=workdir,
                                 env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    digests = {name: _sha256(workdir / name) for name in op["artifacts"]
               if (workdir / name).is_file()}
    if op["stdout_is_artifact"]:
        digests[stdout.name] = _sha256(stdout)
    return {"rc": child.returncode, "wall_s": seconds,
            **{name: getattr(usage, name) for name in ("ru_minflt", "ru_stime", "ru_utime", "ru_maxrss")},
            "sha256": digests}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--src", action="append", type=Path,
                        help="a source checkout; repeat to alternate several (default: .)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.src or [Path(".")]]
    for tree in trees:
        if not (tree / "src" / "boostkit" / "__main__.py").is_file():
            parser.error(f"no boostkit sources under {tree / 'src'}")

    failed = False
    with tempfile.TemporaryDirectory(prefix="boostkit-fresh-") as tmp:
        workdirs = [Path(tmp) / f"tree{i}" for i in range(len(trees))]
        for workdir in workdirs:
            workdir.mkdir()
        setup = subprocess.run(
            [sys.executable, "-c", SETUP, str(BENCH), args.workload, str(args.seed), *map(str, workdirs)],
            capture_output=True, text=True)
        if setup.returncode != 0:
            print(setup.stderr, file=sys.stderr, end="")
            return 2
        plan = json.loads(setup.stdout)
        for pair in range(args.pairs):
            for i in (pair + k for k in range(len(trees))):
                tree, workdir, ops = trees[i % len(trees)], workdirs[i % len(trees)], plan["ops"][i % len(trees)]
                for op in ops:
                    record = run_op(tree, op, workdir)
                    failed = failed or record["rc"] != 0
                    print(json.dumps({"src": str(tree), "pair": pair, "op": op["metric"], **record}),
                          flush=True)
                for name in os.listdir(workdir):  # the next run starts from the inputs alone
                    if name not in plan["inputs"]:
                        os.remove(workdir / name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
