#!/usr/bin/env python3
"""The umbralops benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload verify-default --seed 7 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  End-to-end times are in reference
seconds: measured seconds scaled by a machine-speed probe (speed.py); the
provenance line before the result gives the raw figures too, and, when
traced, the full per-layer report follows it.  ``--smoke`` runs the workload
once at reduced size and fails unless every metric name is emitted.

Metric definitions, workload reasons and the layer predictions are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

# The percentile reported as req_tail_ms, fixed per workload.  It should
# keep ten pooled samples beyond it, and it must not fall on the edge between
# two clusters of requests, where the seed moves it across.  cli-readme's p90
# (135-195 samples) sits among the laguerre probes.  verify-default's top
# 6-9 requests per pass take 0.3-3 s and the rest under 0.25 s; p88-p93 fall
# on that edge (p90 read 177 ms or 386 ms by seed), so it reports p95, which
# leaves 8 samples beyond it at 2 passes and 12 at 3.  deep-o28 yields fewer
# than ten samples per run, so its tail is the slowest request (p100).
TAIL_PERCENTILE = {"verify-default": 95, "deep-o28": 100, "cli-readme": 90}
SETUP_REPEATS = 11

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
# Per-layer metrics on the last line: the layers all three workloads
# exercise.  The traced report line adds the rest (suite times, laguerre,
# bivariate and cli self times), which read 0 on workloads that never call
# them.
PER_LAYER = (
    "scalars.coerce.calls",
    "scalars.coerce.rewrap_share",
    "polynomials.new.calls",
    "series.mul.calls",
    "series.compose.calls",
    "series.compose.s",
    "series.comp_inverse.s",
    "series.self_s",
    "operators.compose_ops.calls",
    "operators.compose_ops.s",
    "operators.log_unipotent.s",
    "operators.exp_loc_nilpotent.s",
    "operators.gen_pow.s",
    "operators.self_s",
    "umbral.itlog.calls",
    "umbral.itlog.s",
    "umbral.itlog.useful_ratio",
    "umbral.garsia.s",
    "umbral.steffensen.s",
    "umbral.steffensen2.s",
    "umbral.bucc.s",
    "umbral.expitlog.s",
    "umbral.fractional_iterate.s",
    "umbral.frac_power.s",
    "umbral.flow.s",
    "umbral.self_s",
    "corpus.load.s",
    "verify.items",
    "cli.main.calls",
    "trace.overhead_ratio",
)


def _import_program():
    if not (SRC / "umbralops" / "__init__.py").is_file():
        sys.exit(f"error: no umbralops package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import umbralops

    if not Path(umbralops.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported umbralops from {umbralops.__file__}, not from {SRC}")


# -- running requests ---------------------------------------------------


class Pass:
    """One closed-loop pass over the request list, checked afterwards;
    ``whole_check`` gets every output of the pass at once.  ``spans`` holds
    each request's (start, end) on the ``perf_counter`` clock."""

    def __init__(self, requests, whole_check):
        self.spans = []
        outputs = []
        for req in requests:
            start = time.perf_counter()
            try:
                out, exc = req.run(), None
            except Exception as err:  # a failing request is counted, never fatal
                out, exc = None, err
            self.spans.append((start, time.perf_counter()))
            outputs.append((out, exc))
        self.latencies = [end - start for start, end in self.spans]
        self.wall = sum(self.latencies)
        self.statuses = []
        for req, (out, exc) in zip(requests, outputs):
            try:
                self.statuses.append(req.check(out, exc))
            except Exception:
                self.statuses.append("fail")
        self.whole_ok = whole_check([out for out, _ in outputs])


def run_passes(requests, whole_check, seconds, max_passes):
    """Whole passes until the next one would end past ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(requests, whole_check))
        elapsed = time.perf_counter() - start
        if len(passes) >= max_passes or elapsed + passes[-1].wall > seconds:
            return passes


def percentile(values, p):
    """Linear interpolation between closest ranks; p in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def setup_times(workload, seed, size_name, repeats, probe):
    """Set-up seconds of ``repeats`` fresh processes, raw and in reference
    seconds (scaled by the probes taken just before and after each)."""
    raw, scaled = [], []
    for i in range(repeats):
        workdir = WORK / f"setup-{os.getpid()}-{i}"
        probe.sample()
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir), size_name],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=120,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        end = time.perf_counter()
        probe.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(seconds)
        scaled.append(seconds * probe.reference_seconds(start, end) / (end - start))
    return raw, scaled


# -- provenance ---------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest():
    h = hashlib.sha256()
    pkg = SRC / "umbralops"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def tally(passes):
    statuses = [s for p in passes for s in p.statuses]
    return {
        "attempted": len(statuses),
        "failed": statuses.count("fail"),
        "known_defect": statuses.count("known-defect"),
    }


# -- the two kinds of run -----------------------------------------------


def measure(args, requests, size_name, whole_check):
    max_passes = 1 if args.smoke else 10**9
    probe = SpeedProbe()
    raw_setups, setups = setup_times(
        args.workload, args.seed, size_name, 1 if args.smoke else SETUP_REPEATS, probe
    )
    with probe:
        passes = run_passes(requests, whole_check, args.seconds, max_passes)
    latencies = [[probe.reference_seconds(*span) for span in p.spans] for p in passes]
    pooled = [x for lat in latencies for x in lat]
    tail_p = TAIL_PERCENTILE[args.workload]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(lat) for lat in latencies),
        "req_p50_ms": statistics.median(pooled) * 1000,
        "req_tail_ms": percentile(pooled, tail_p) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_pooled = [x for p in passes for x in p.latencies]
    raw = {
        "setup_s": statistics.median(raw_setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "req_p50_ms": statistics.median(raw_pooled) * 1000,
        "req_tail_ms": percentile(raw_pooled, tail_p) * 1000,
        "probe_s": statistics.median(probe.times),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(passes),
        "req_p50_ms": len(pooled),
        "req_tail_ms": {
            "percentile": tail_p,
            "n": len(pooled),
            "beyond": sum(1 for x in pooled if x * 1000 > values["req_tail_ms"]),
        },
        "probe_s": len(probe.times),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return passes, metrics, {"samples": samples, "raw": raw}


def traced(build, whole_check):
    from tracing import Tracer

    plain = Pass(build(), whole_check)
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            p = Pass(build(), whole_check)
        runs.append((p, tracer))
    passes = [plain] + [p for p, _ in runs]
    counts = [t.counts() for _, t in runs]
    deterministic = counts[0] == counts[1]
    report = {}
    per_run = [t.metrics() for _, t in runs]
    for name, (_, unit) in per_run[0].items():
        report[name] = {"value": statistics.mean(m[name][0] for m in per_run), "unit": unit}
    overhead = statistics.mean(p.wall for p, _ in runs) / plain.wall
    report["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics = {name: report[name] for name in PER_LAYER}
    extra = {
        "deterministic": deterministic,
        "untraced_wall_s": plain.wall,
        "traced_wall_s": [p.wall for p, _ in runs],
        "trace_report": report,
    }
    if not deterministic:
        extra["count_mismatch"] = {
            k: [c[k] for c in counts] for k in counts[0] if counts[0][k] != counts[1].get(k)
        }
    return passes, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at reduced size; check metric names")
    args = parser.parse_args(argv)

    _import_program()
    os.environ.pop("UMBRAL_ORDER", None)
    import workloads

    size_name = "smoke" if args.smoke else "full"
    size = workloads.SIZES[size_name]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    ref = workloads.load_reference() if size.full and args.seed == workloads.DEFAULT_SEED else None

    def build():
        return workloads.build(args.workload, args.seed, workdir, size)

    def whole_check(outputs):
        if args.workload != "verify-default":
            return True
        return workloads.merged_check(outputs, ref)

    try:
        if args.trace:
            passes, metrics, extra = traced(build, whole_check)
        else:
            passes, metrics, extra = measure(args, build(), size_name, whole_check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    counts = tally(passes)
    correct = counts["failed"] == 0 and all(p.whole_ok for p in passes)
    correct = correct and extra.get("deterministic", True)
    info = provenance(args)
    info["passes"] = len(passes)
    info["error_rate"] = (counts["failed"] + counts["known_defect"]) / counts["attempted"]
    info["known_defect_requests"] = counts["known_defect"]
    info.update({k: v for k, v in extra.items() if k != "trace_report"})
    print("provenance: " + json.dumps(info, sort_keys=True))
    if "trace_report" in extra:
        print("trace_report: " + json.dumps(extra["trace_report"], sort_keys=True))

    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    if args.smoke:
        return smoke_check(args, metrics, extra.get("trace_report", {}), correct)
    return 0


def smoke_check(args, metrics, report, correct) -> int:
    """Every metric name is emitted and the reduced-size run is correct."""
    import tracing

    if args.trace:
        missing = set(PER_LAYER) - set(metrics)
        missing |= {*tracing.METRICS, "trace.overhead_ratio"} - set(report)
    else:
        missing = set(END_TO_END) - set(metrics)
    if missing or not correct:
        print(f"smoke: missing metrics {sorted(missing)}, correct={correct}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
