"""Run one ``cardiotox`` CLI command with spans around each layer's public functions.

Usage: python3 bench/tracer.py SPANS_JSON -- <cardiotox arguments>

The wrappers replace every reference to a traced function in the loaded
``cardiotox`` modules, so calls made through a module attribute
(``glm.fit_logistic``) and through a name imported with ``from ... import``
(``cli.load_cohort``, ``causal.build_matrix``) are both caught. Spans
(name, start, end, parent) and counts stay in memory and are written to
SPANS_JSON when the command returns. The program's outputs are unchanged.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

TRACED = (
    "cli.main",
    "cohort.load_cohort",
    "cohort.load_code_map",
    "preprocess.apply_eligibility",
    "preprocess.compute_features",
    "preprocess.build_matrix",
    "glm.fit_logistic",
    "glm.backward_eliminate",
    "evaluate.stratified_kfold",
    "evaluate.auc",
    "evaluate.roc_curve",
    "evaluate.cv_report_and_scores",
    "causal.bootstrap_effects",
    "tableio.write_csv",
    "synth.generate",
    "synth.write_cohort",
    "synth.write_truth_csv",
)


class Tracer:
    """Spans and counts of one process, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cardiotox"]
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"cardiotox.{module_name}"], attr)
            wrapper = self.wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def _count_load(counts, cohort, args, kwargs):
    counts["cohort.rows"] += len(cohort) + sum(
        len(p.observations) + len(p.diagnoses) + len(p.medications) + len(p.treatments)
        for p in cohort
    )


def _count_eligibility(counts, report, args, kwargs):
    counts["preprocess.patients_excluded"] += len(report.excluded)


def _count_fit(counts, model, args, kwargs):
    counts["glm.irls_iterations"] += model.iterations


def _count_eliminate(counts, trace, args, kwargs):
    counts["glm.elimination_steps"] += len(trace.steps)


def _count_bootstrap(counts, estimates, args, kwargs):
    n_boot = estimates[0].n_boot_requested
    n_rows = len(args[0])
    counts["causal.replicates"] += n_boot
    counts["causal.replicates_failed"] += n_boot - estimates[0].n_boot_succeeded
    # causal draws all resample indices up front as one B x n int64 matrix
    counts["causal.index_bytes"] += n_boot * n_rows * 8


def _count_write(counts, result, args, kwargs):
    counts["tableio.bytes_written"] += os.path.getsize(args[0])


_COUNTERS = {
    "cohort.load_cohort": _count_load,
    "preprocess.apply_eligibility": _count_eligibility,
    "glm.fit_logistic": _count_fit,
    "glm.backward_eliminate": _count_eliminate,
    "causal.bootstrap_effects": _count_bootstrap,
    "tableio.write_csv": _count_write,
}


def main() -> int:
    spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <cardiotox arguments>")
    import cardiotox.cli  # noqa: F401  (loads every layer module)

    tracer = Tracer()
    tracer.install()
    code = sys.modules["cardiotox.cli"].main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
