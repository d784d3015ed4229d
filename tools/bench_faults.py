"""Run the benchmark in this process and report the process's page faults and CPU time.

Usage, from the root of a source checkout, with ``bench/run.py``'s arguments:

    python3 tools/bench_faults.py --workload cde-5k --seed 1 --seconds 34 --trace 0

``bench/run.py`` runs in-process through ``runpy`` with the same arguments.
Its output is held back; then three lines are printed: the bench's last line
(its JSON result); one JSON object with this process's ``ru_minflt``,
``ru_majflt``, ``ru_utime`` and ``ru_stime`` from ``getrusage`` after the
run, so the counts cover set-up, every pass and the checks; and one with the
reaped children's ``ru_maxrss`` (KiB, the largest child's), ``ru_minflt``,
``ru_utime`` and ``ru_stime``: the stump search's sibling processes and the
job children of ``cde train`` and ``active``, all zero where none was
forked. The exit status is the bench's.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import runpy
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def main(argv: list[str]) -> int:
    sys.argv = [str(BENCH), *argv]
    sys.path.insert(0, str(BENCH.parent))  # run.py imports its sibling modules
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_path(str(BENCH), run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
    lines = out.getvalue().splitlines()
    print(lines[-1] if lines else "")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({name: getattr(usage, name)
                      for name in ("ru_minflt", "ru_majflt", "ru_utime", "ru_stime")}))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({name: getattr(usage, name)
                      for name in ("ru_maxrss", "ru_minflt", "ru_utime", "ru_stime")}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
