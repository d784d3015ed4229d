"""Re-runnable mutation checks: each mutant must make its named tests fail.

Usage, from the root of a source checkout:

    python tests/mutants.py

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs every named test on the unmutated copy; all must
pass. It then applies one mutant at a time: the mutant's original text must
occur exactly once in its file and is replaced; the mutant's tests run; the
file is restored. A mutant is *killed* when a test fails, *survived* when
all pass, and *stale* when its original text is not found once or pytest
finds none of its tests. The exit status is 0 only if every mutant is
killed. The file name keeps pytest from collecting it with the test suite;
only the standard library is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout root
    original: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = (
    # the error rate, the derived datasets, active learning's loop, the unit cap and the CLI loader
    Mutant(
        "error rate with sign(0) = -1", "src/boostkit/boosting.py",
        "np.count_nonzero((f >= 0.0) != (labels > 0.0))",
        "np.count_nonzero((f > 0.0) != (labels > 0.0))",
        ("tests/test_boosting.py::TestSignConvention::test_error_rate_counts_a_zero_score_as_positive",),
    ),
    Mutant(
        "take drops the weights", "src/boostkit/data.py",
        "weights=None if self.weights is None else self.weights[idx],",
        "weights=None,",
        ("tests/test_data.py::TestDatasetInvariants::test_take_carries_every_column",),
    ),
    Mutant(
        "simulate retrains one time too few", "src/boostkit/active.py",
        "for it in range(cfg.iterations + 1):",
        "for it in range(cfg.iterations):",
        ("tests/test_active.py::TestSimulate::test_point_counts",
         "tests/test_active.py::TestSimulate::test_no_label_leakage"),
    ),
    Mutant(
        "uncapped unit alpha", "src/boostkit/boosting.py",
        "alpha = 1.0 if top <= ALPHA_CAP else ALPHA_CAP / top",
        "alpha = 1.0",
        ("tests/test_boosting.py::TestTrain::test_unit_alpha_obeys_the_cap",
         "tests/test_cli.py::TestTrainCommand::test_unit_alphas_obey_the_alpha_cap"),
    ),
    Mutant(
        "label error without its path", "src/boostkit/cli.py",
        'raise DataError(f"{opt[key]}: {use} requires classification labels (-1/+1)")',
        'raise DataError(f"{use} requires classification labels (-1/+1)")',
        ("tests/test_cli.py::TestLabelErrorsNameTheFile::test_real_valued_labels",
         "tests/test_cli.py::TestTrainCommand::test_real_valued_test_labels_name_the_test_file"),
    ),
    Mutant(
        "flip masses swapped between labels in _fold", "src/boostkit/prior.py",
        "flip = np.where(pos, to_neg, to_pos)",
        "flip = np.where(pos, to_pos, to_neg)",
        ("tests/test_prior.py::TestFoldedMatchesAugmented::test_drawn_data",),
    ),
    # the bounded-memory CSV reader
    Mutant(
        "no per-block finiteness check", "src/boostkit/data.py",
        "                    if not np.all(np.isfinite(target[n:end])):\n"
        "                        return None\n",
        "",
        ("tests/test_data.py::test_blocks_match_cell_by_cell_oracle",
         "tests/test_data.py::test_reader_matches_cell_by_cell_oracle"),
    ),
    Mutant(
        "no cut of unwritten rows", "src/boostkit/data.py",
        "    if n < bound:  # blank lines",
        "    if False:  # blank lines",
        ("tests/test_data.py::test_blocks_match_cell_by_cell_oracle",
         "tests/test_data.py::test_reader_matches_cell_by_cell_oracle"),
    ),
    Mutant(
        "no per-block prior check", "src/boostkit/data.py",
        "                if prior is not None:\n"
        "                    p = targets[prior][n:end]\n"
        "                    if not np.all((p >= 0.0) & (p <= 1.0)):\n"
        "                        return None\n",
        "",
        ("tests/test_data.py::test_blocks_match_cell_by_cell_oracle",
         "tests/test_data.py::test_reader_parity_with_named_prior"),
    ),
    # the public surface, the Dataset checks, the prior objective and the line search
    Mutant(
        "an __all__ name not imported", "src/boostkit/__init__.py",
        "    train,\n    update_distribution,\n)",
        "    train,\n)",
        ("tests/test_exports.py::test_every_exported_name_resolves",
         "tests/test_exports.py::test_all_is_exactly_the_imported_public_names"),
    ),
    Mutant(
        "finiteness check on min only", "src/boostkit/data.py",
        "if not (math.isfinite(X.min()) and math.isfinite(X.max())):",
        "if not math.isfinite(X.min()):",
        ("tests/test_data.py::TestDatasetInvariants::test_every_nonfinite_value_rejected",),
    ),
    Mutant(
        "unweighted prior_objective", "src/boostkit/prior.py",
        "np.sum(_base_weights(ds) * log1pexp(-(ds.labels * f)))",
        "np.sum(log1pexp(-(ds.labels * f)))",
        ("tests/test_prior.py::TestTrainWithPrior::test_weighted_prior_loss_non_increasing_at_a_constant_offset",),
    ),
    Mutant(
        "converged logistic line search writes s", "src/boostkit/boosting.py",
        "        return 0.0\n    rows = ... if n == active.shape[0] else active"
        "  # every row active: views, not copies\n    wa, yha, yfa",
        "        if s is not None:\n            s[:] = 0.5\n"
        "        return 0.0\n    rows = ... if n == active.shape[0] else active\n    wa, yha, yfa",
        ("tests/test_boosting.py::TestLineSearchSigmoidHandOff::test_sigmoids_at_the_returned_alpha",),
    ),
    # the line searches' deferred probes, curvature, compaction and one-signed precheck
    Mutant(
        "+cap is never probed", "src/boostkit/boosting.py",
        "    if top or (top is None and grad(cap)[0] <= 0.0):",
        "    if top:",
        ("tests/test_boosting.py::TestLineSearchOracle::test_flat_curves",
         "tests/test_boosting.py::TestLineSearchOracle::test_flat_curve_returns_the_cap_its_probe_finds"),
    ),
    Mutant(
        "L'' taken from the previous point", "src/boostkit/boosting.py",
        "        kept[slot], latest = (a, sa), (sa, t)\n"
        "        return d1_flip + float((d1w * sa).sum()), margin\n\n"
        "    def curv() -> float:\n        nonlocal latest\n        (sa, t), latest = latest, None\n",
        "        previous.append((sa, t))\n        kept[slot], latest = (a, sa), (sa, t)\n"
        "        return d1_flip + float((d1w * sa).sum()), margin\n\n    previous = []\n\n"
        "    def curv() -> float:\n        nonlocal latest\n"
        "        (sa, t), latest = previous[-2] if len(previous) > 1 else latest, None\n",
        ("tests/test_boosting.py::TestLineSearchOracle::test_logistic_alphas_identical",),
    ),
    Mutant(
        "compaction skipped while some row is inactive", "src/boostkit/boosting.py",
        "    rows = ... if n == active.shape[0] else active  # every row active: views, not copies\n"
        "    wa, yha, yfa",
        "    rows = ...\n    wa, yha, yfa",
        ("tests/test_boosting.py::TestLineSearchSigmoidHandOff::test_sigmoids_at_the_returned_alpha",
         "tests/test_boosting.py::TestLineSearchOracle::test_logistic_alphas_identical"),
    ),
    Mutant(
        "one-signed precheck returns -cap without the +cap underflow check",
        "src/boostkit/boosting.py",
        "        return cap if grad(cap)[0] <= 0.0 else -cap\n",
        "        return -cap\n",
        ("tests/test_boosting.py::TestOneSignedSearches::"
         "test_every_sigmoid_underflowing_at_the_cap_returns_the_cap",),
    ),
    # the stump search's sibling: the reduction, the split of the blocks, the masses sent
    Mutant(
        "the sibling wins ties", "src/boostkit/stumps.py",
        "    return other if other[0] < best[0] else best",
        "    return other if other[0] <= best[0] else best",
        ("tests/test_sibling.py::TestReduction::test_a_tie_across_the_cut_goes_to_the_parent",),
    ),
    Mutant(
        "the sibling skips its first block", "src/boostkit/sibling.py",
        "best = stumps._scan(space, lo, n, mode,",
        "best = stumps._scan(space, lo + 1, n, mode,",
        ("tests/test_sibling.py::TestReduction::test_the_block_on_either_side_of_the_cut_is_scanned",),
    ),
    Mutant(
        "the parent skips its last block", "src/boostkit/stumps.py",
        "    best = _scan(space, 0, sibling.cut, mode,",
        "    best = _scan(space, 0, sibling.cut - 1, mode,",
        ("tests/test_sibling.py::TestReduction::test_the_block_on_either_side_of_the_cut_is_scanned",),
    ),
    Mutant(
        "the flip path sends w_pos as both arrays", "src/boostkit/sibling.py",
        "        shared = w_pos is w_neg\n",
        "        shared = True\n",
        ("tests/test_sibling.py::test_outputs_identical_with_and_without_the_sibling",),
    ),
    # what the sibling cannot compute silently, and the rounding-level log-odds
    Mutant(
        "a 0 reply read as a result", "src/boostkit/sibling.py",
        "        if not reply[0]:  # its scan warned or raised\n            return None\n",
        "",
        ("tests/test_sibling.py::TestWhatTheSiblingCannotComputeSilently::"
         "test_a_raising_block_raises_as_in_one_process",
         "tests/test_sibling.py::TestWhatTheSiblingCannotComputeSilently::"
         "test_warning_blocks_warn_as_in_one_process"),
    ),
    Mutant(
        "the sibling's warnings are not errors", "src/boostkit/sibling.py",
        '        warnings.simplefilter("error")\n',
        "",
        ("tests/test_sibling.py::TestWhatTheSiblingCannotComputeSilently::"
         "test_warning_blocks_warn_as_in_one_process",),
    ),
    Mutant(
        "no guard on a quotient that rounds to 0 or overflows", "src/boostkit/stumps.py",
        "    if ratio == 0.0 or ratio == math.inf:\n"
        "        return 0.5 * (math.log(num) - math.log(den))\n",
        "",
        ("tests/test_stumps.py::TestConfidenceOutputs::"
         "test_a_quotient_rounding_to_zero_gives_the_difference_of_logs",
         "tests/test_stumps.py::TestConfidenceOutputs::"
         "test_an_overflowing_quotient_gives_the_difference_of_logs",
         "tests/test_stumps.py::TestLabelSplitOracle::test_drawn_data",
         "tests/test_cli.py::TestTrainCommand::"
         "test_an_overflowing_side_quotient_trains_with_a_clamped_unit_alpha"),
    ),
)

# pytest's exit codes: 0 all passed, 1 some failed, 2 interrupted (a
# collection error), 4 usage error (a node id not found), 5 no tests ran
_PASSED, _FAILED, _INTERRUPTED = 0, 1, 2


def run_tests(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def verdict(tree: Path, mutant: Mutant) -> tuple[str, str]:
    """killed, survived or stale, and pytest's last line of output."""
    target = tree / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.original) != 1:
        return "stale", f"original text found {text.count(mutant.original)} times"
    target.write_text(text.replace(mutant.original, mutant.replacement), encoding="utf-8")
    try:
        result = run_tests(tree, mutant.tests)
    finally:
        target.write_text(text, encoding="utf-8")
    last = (result.stdout.strip().splitlines() or [""])[-1]
    if result.returncode in (_FAILED, _INTERRUPTED):
        return "killed", last
    return ("survived" if result.returncode == _PASSED else "stale"), last


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="boostkit-mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        baseline = run_tests(tree, sorted({t for m in MUTANTS for t in m.tests}))
        if baseline.returncode != _PASSED:
            print(baseline.stdout[-3000:])
            print("the unmutated tree fails the named tests", file=sys.stderr)
            return 1
        counts = {"killed": 0, "survived": 0, "stale": 0}
        for mutant in MUTANTS:
            outcome, detail = verdict(tree, mutant)
            counts[outcome] += 1
            print(f"{outcome:8}  {mutant.name}  ({detail})", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()),
          f"in {time.perf_counter() - start:.1f} s")
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
