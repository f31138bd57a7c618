"""Survey benchmark for smoothdigits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  The run first imports the package in a few fresh processes
(set-up), then repeats whole passes of the workload, each in a fresh
process, until the passes have taken S seconds.  Every record of every pass
is checked against an independent recomputation (checks.py) outside the
timed window.  With --trace 1 the passes alternate between untraced and
traced (tracer.py) and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of stdout is the result as JSON.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, median_low

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
EXIT_OK, EXIT_PARTIAL = 0, 3


def _child(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if Path(result["module"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"smoothdigits was imported from {result['module']}, not {SRC}")
    return result, proc.stderr


class Run:
    def __init__(self, workload, seed, workdir):
        self.cmds = workloads.commands(workload, seed)
        self.checks = [checks.CommandCheck(cmd) for cmd in self.cmds]
        self.outputs = [str(workdir / f"out{i}.jsonl") for i in range(len(self.cmds))]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_digests = None
        self.passes = []  # (traced, child result, records written, complete records)

    def run_pass(self, traced):
        spec = {"commands": [c["argv"] for c in self.cmds], "outputs": self.outputs,
                "trace": traced}
        result, stderr = _child("pass", json.dumps(spec))
        written = complete = 0
        digests = []
        for check, path, code in zip(self.checks, self.outputs, result["exit_codes"]):
            text = Path(path).read_text(encoding="utf-8")
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            self.attempted += check.due
            if code not in (EXIT_OK, EXIT_PARTIAL):
                self.failed += check.due
                _note(f"{check.cmd['argv']} exited {code}: {stderr[-500:]}")
                continue
            failed, good_complete, partial = check.result(text, report=_note)
            self.failed += failed
            written += max(0, len(text.splitlines()) - 1)
            complete += good_complete
            # Exit 3 exactly when a partial record was written.
            if code != (EXIT_PARTIAL if partial else EXIT_OK):
                self._incorrect(f"{check.cmd['argv']} exited {code} with {partial} partial")
        result["bytes_out"] = sum(os.path.getsize(p) for p in self.outputs)
        # Identical inputs must give identical records on every pass.
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            self._incorrect("a pass wrote different output from the first pass")
        self.passes.append((traced, result, written, complete))
        return result["wall_s"]

    def _incorrect(self, reason):
        self.correct = False
        _note(reason)

    def end_to_end(self, setup):
        rows = [(r, n, c) for traced, r, n, c in self.passes if not traced]
        return {
            "records_per_s": (median([n / r["wall_s"] for r, n, _ in rows]), "records/s"),
            "first_record_s": (median([r["first_record_s"] for r, _, _ in rows]), "s"),
            "complete_records": (median_low([c for _, _, c in rows]), "records"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r, _, _ in rows]), "MB"),
            "setup_s": (median(setup), "s"),
        }

    def per_layer(self):
        plain = [r for traced, r, _, _ in self.passes if not traced]
        traced = [r for is_traced, r, _, _ in self.passes if is_traced]
        out = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            if name.endswith(("calls", "terms", "partial")):
                out[name] = (median_low(values), "count")
            else:
                out[name] = (median(values), "s")
        out["cli.bytes_out"] = (median_low([r["bytes_out"] for r in traced]), "bytes")
        overhead = (median([r["wall_s"] for r in traced])
                    - median([r["wall_s"] for r in plain]))
        out["trace.overhead_s"] = (overhead, "s")
        return out


def _note(message):
    print(f"# {message}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smoothdigits" / "cli.py").is_file():
        _note(f"no smoothdigits sources under {SRC}; run from a source checkout")
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setup = [_child("setup")[0]["import_s"] for _ in range(SETUP_SAMPLES)]
        run = Run(args.workload, args.seed, workdir)
        measured = 0.0
        rounds = 0
        # With tracing, a round is an untraced and a traced pass, in
        # alternating order; without it, a round is one untraced pass.
        while len(run.passes) < MIN_PASSES or measured < args.seconds:
            order = (False, True) if rounds % 2 == 0 else (True, False)
            for traced in order if args.trace else (False,):
                measured += run.run_pass(traced)
            rounds += 1
        metrics = run.per_layer() if args.trace else run.end_to_end(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
