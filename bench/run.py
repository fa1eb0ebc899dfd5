"""hadlab benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload scan-w16-r3 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Load model: closed loop, one client in one process; the next call starts
when the previous one returns.  BLAS runs on one thread (set in this
process's environment before numpy loads), so the run stays within one of
the machine's cores.  Gated times are in reference seconds (see speed.py).
The last stdout line is the result object; the line before it is the full
report (workload properties, wall-clock figures, speed probe, environment,
failures, trace details).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import spans
import speed
import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("scan-w16-r3", "scan-w8-r4", "split-w256-r3", "cli-complement-w128")
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups in fresh processes before and after the timed part, around the one
#: in this process; setup_s is the median of all seven.  Spreading them over
#: the run keeps one slow moment of a shared host from setting the median.
SETUP_FRESH_BEFORE = 3
SETUP_FRESH_AFTER = 3
SUBPROCESS_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- set-up ------------------------------------------------------------------


def set_up(name: str, seed: int):
    """Import the library from this checkout, build the workload's inputs and
    warm up.  Returns the seconds taken, the same scaled to reference speed by
    probes just before and after, and the workload."""
    before = speed.probe_ms()
    t0 = time.perf_counter()
    import hadlab
    import workloads

    if not Path(hadlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: hadlab was imported from {hadlab.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[name](seed, str(OUT_DIR))
    wl.warm_up()
    seconds = time.perf_counter() - t0
    factor = (before + speed.probe_ms()) / (2 * speed.REF_PROBE_MS)
    return seconds, seconds / factor, wl


def set_up_in_fresh_process(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up process failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["ref_setup_s"]


# --- measurement -------------------------------------------------------------


class Segment:
    """Totals of one timed segment of closed-loop calls."""

    def __init__(self):
        self.busy_s = 0.0
        self.ref_busy_s = 0.0
        self.calls = 0
        self.failed = 0
        self.splits = 0
        self.records = 0
        self.latencies: list[float] = []
        self.ref_latencies: list[float] = []
        self.props: Counter = Counter()
        self.stdout_bytes = 0
        self.failures: list[str] = []

    @property
    def rate(self) -> float:
        """Splits per reference second."""
        return self.splits / self.ref_busy_s if self.ref_busy_s else 0.0

    @property
    def raw_rate(self) -> float:
        return self.splits / self.busy_s if self.busy_s else 0.0


def measure(wl, seconds: float, track: speed.SpeedTrack, timer) -> Segment:
    """Call the workload until the calls' own time adds up to ``seconds``.

    Only the library call is timed; drawing the inputs, probing the host's
    speed and checking the output happen outside it.  (Probes that the split
    timer makes inside a scan are subtracted from the call.)  On the scan
    workloads ``timer`` holds the time and the facts of each split of the
    call just made.
    """
    seg = Segment()
    while seg.busy_s < seconds:
        track.tick()
        job = wl.next_job()
        probed = track.overhead_s
        t0 = time.perf_counter()
        try:
            output, error = wl.run(job), None
        except Exception as exc:  # a raising call is a failed call
            output, error = None, exc
        t1 = time.perf_counter()
        elapsed = t1 - t0 - (track.overhead_s - probed)
        factor = track.factor(t0, t1)
        seg.busy_s += elapsed
        seg.ref_busy_s += elapsed / factor
        seg.calls += 1
        timed_splits = timer.drain() if timer is not None else []
        # per-split latency where scan() goes through classify_split, else the call's
        if timed_splits:
            seg.latencies.extend(dt for dt, _, _ in timed_splits)
            seg.ref_latencies.extend(dt / track.factor_at(done) for dt, done, _ in timed_splits)
        else:
            seg.latencies.append(elapsed)
            seg.ref_latencies.append(elapsed / factor)
        if error is not None:
            failure = f"{type(error).__name__}: {error}"
        else:
            try:
                outcome = wl.check(job, output, timed_splits)
            except Exception as exc:  # malformed output fails the check
                failure = f"check raised {type(exc).__name__}: {exc}"
            else:
                failure = outcome.failure
                seg.splits += outcome.splits
                seg.records += outcome.records
                seg.props.update(outcome.props)
                seg.stdout_bytes += outcome.stdout_bytes
        if failure is not None:
            seg.failed += 1
            if len(seg.failures) < 5:
                seg.failures.append(failure)
    return seg


def split_timer(wl, tick):
    return spans.SplitTimer(tick) if wl.scans else nullcontext()


def shares(seg: Segment) -> dict:
    import workloads

    return {p: seg.props[p] / seg.records if seg.records else 0.0 for p in workloads.PROPERTIES}


def end_to_end_metrics(seg: Segment, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, times in reference seconds, and the same
    figures in wall-clock time for the report."""
    tail_value, tail_pct, samples = stats.tail(seg.ref_latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "splits_per_s": (seg.rate, "1/s"),
        "call_ms.p50": (1000 * stats.median(seg.ref_latencies), "ms"),
        "call_ms.tail": (1000 * tail_value, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = {
        "splits_per_s": seg.raw_rate,
        "call_ms.p50": 1000 * stats.median(seg.latencies),
        "call_ms.tail": 1000 * stats.tail(seg.latencies)[0],
        "call_ms.tail_percentile": tail_pct,
        "call_ms.samples": samples,
    }
    return metrics, wall


def per_layer_metrics(seg: Segment, tracer, summary: dict, overhead_pct: float) -> dict:
    """Every per-layer metric, normalised per split (one CLI call is one split)."""
    per = 1.0 / max(seg.splits, 1)
    table = summary["spans"]

    def calls(name):
        return table.get(name, {}).get("calls", 0) * per

    def ms(name):
        return 1000 * table.get(name, {}).get("total_s", 0.0) * per

    def self_ms(name):
        return 1000 * table.get(name, {}).get("self_s", 0.0) * per

    share = shares(seg)
    metrics = {
        "scan.classify_split.self_ms": (self_ms("scan.classify_split"), "ms/split"),
        "scan.enumerate_splits.ms": (ms("scan.enumerate_splits"), "ms/split"),
        "scan.share.applicable": (share["applicable"], "share"),
        "scan.share.singularA": (share["singularA"], "share"),
        "scan.share.not_ahp": (share["not_ahp"], "share"),
        "scan.share.near_band": (share["near_band"], "share"),
        "matcore.blocks.calls": (calls("matcore.blocks"), "count/split"),
        "matcore.blocks.ms": (ms("matcore.blocks"), "ms/split"),
        "matcore.as_sign_matrix.calls": (calls("matcore.as_sign_matrix"), "count/split"),
        "matcore.is_hadamard.calls": (calls("matcore.is_hadamard"), "count/split"),
        "matcore.is_hadamard.ms": (ms("matcore.is_hadamard"), "ms/split"),
        "matcore.parse_sign_matrix.ms": (ms("matcore.parse_sign_matrix"), "ms/split"),
        "matcore.json_dumps.ms": (ms("matcore.json_dumps"), "ms/split"),
        "matcore.json_dumps.bytes": (tracer.counters["matcore.json_dumps.bytes"] * per, "bytes/split"),
        "numlin.polar.calls": (calls("numlin.polar"), "count/split"),
        "numlin.polar.ms": (ms("numlin.polar"), "ms/split"),
        "numlin.is_psd.ms": (ms("numlin.is_psd"), "ms/split"),
        "linalg.svd.calls": (calls("linalg.svd"), "count/split"),
        "linalg.eigh.calls": (calls("linalg.eigh") + calls("linalg.eigvalsh"), "count/split"),
        "linalg.ms": (sum(ms(f"linalg.{name}") for name in spans.LINALG_TARGETS), "ms/split"),
        "linalg.work_computed": (tracer.counters["linalg.work_computed"] * per, "mnk/split"),
        "complement.complement_polar.self_ms": (self_ms("complement.complement_polar"), "ms/split"),
        "complement.gram_identities_check.ms": (ms("complement.gram_identities_check"), "ms/split"),
        "complement.singular_value_complement_check.ms": (
            ms("complement.singular_value_complement_check"),
            "ms/split",
        ),
        "complement.det_complement_check.ms": (ms("complement.det_complement_check"), "ms/split"),
        "complement.xa_ya.ms": (ms("complement.xa_ya"), "ms/split"),
        "ahp.verdict_from_polar.self_ms": (self_ms("ahp.verdict_from_polar"), "ms/split"),
        "ahp.ahp_check.ms": (ms("ahp.ahp_check"), "ms/split"),
        "bounds.bound_e_inf.ms": (ms("bounds.bound_e_inf"), "ms/split"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms/split"),
        "cli.stdout_bytes": (seg.stdout_bytes * per, "bytes/split"),
    }
    root = summary["root_total_s"]
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer] * per, "count/split")
        metrics[f"{layer}.self_share"] = (summary["layer_self_s"][layer] / root if root else 0.0, "share")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


# --- environment ---------------------------------------------------------------


def blas_threads():
    """OpenBLAS's own thread count, asked through ctypes; None if unknown."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def code_version() -> dict:
    """The git commit when the checkout is a git repository, and always a
    digest of the library's sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hadlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config layout differs between numpy versions
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": vendor,
        "blas_threads": blas_threads(),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        **code_version(),
    }


# --- one workload ----------------------------------------------------------------


def measure_untraced(wl, args, track: speed.SpeedTrack, setup_samples: list[tuple[float, float]]):
    with split_timer(wl, track.tick) as timer:
        seg = measure(wl, args.seconds, track, timer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples += [set_up_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_FRESH_AFTER)]
    metrics, wall = end_to_end_metrics(seg, statistics.median(ref for _, ref in setup_samples), peak_rss_mb)
    wall["setup_s"] = statistics.median(raw for raw, _ in setup_samples)
    return [seg], metrics, {"wall_clock": wall}


def measure_traced(wl, args, track: speed.SpeedTrack):
    """Half of the time untraced, then half traced; the per-layer metrics come
    from the traced half and the overhead from comparing the two."""
    with split_timer(wl, track.tick) as timer:
        plain = measure(wl, args.seconds / 2, track, timer)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # no probes inside traced scans, where they would count as scan self time
        with split_timer(wl, lambda: None) as timer:
            seg = measure(wl, args.seconds / 2, track, timer)
    finally:
        tracer.uninstall()
    leftovers = spans.leftover_wrappers()
    summary = spans.summarize(tracer)
    overhead_pct = 100 * (plain.rate / seg.rate - 1) if seg.rate else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.txt.gz"
    tracer.write(span_file)
    root = summary["root_total_s"]
    detail = {
        "spans": len(tracer),
        "span_file": str(span_file.relative_to(ROOT)),
        "untraced_splits_per_s": plain.rate,
        "traced_splits_per_s": seg.rate,
        "overhead_pct": overhead_pct,
        "root_span_s": root,
        "self_time_sum_s": summary["self_total_s"],
        "self_time_gap": abs(summary["self_total_s"] - root) / root if root else 0.0,
        "wrappers_left": leftovers,
    }
    return [plain, seg], per_layer_metrics(seg, tracer, summary, overhead_pct), {"trace_detail": detail}


def run_workload(args) -> int:
    fresh = 0 if args.trace else SETUP_FRESH_BEFORE
    setup_samples = [set_up_in_fresh_process(args.workload, args.seed) for _ in range(fresh)]
    raw_setup_s, ref_setup_s, wl = set_up(args.workload, args.seed)
    setup_samples.append((raw_setup_s, ref_setup_s))
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process",
        "setup_samples_s": setup_samples,
    }
    track = speed.SpeedTrack()
    try:
        if args.trace:
            segments, metrics, extra = measure_traced(wl, args, track)
        else:
            segments, metrics, extra = measure_untraced(wl, args, track, setup_samples)
        report.update(extra)
        report["speed_probe"] = track.summary()
        if hasattr(wl, "known_defect_probe"):
            report["known_defect_probe"] = wl.known_defect_probe()
    finally:
        wl.close()

    seg = segments[-1]
    attempted = sum(s.calls for s in segments)
    failed = sum(s.failed for s in segments)
    report["properties"] = {
        "N": wl.n,
        "r": wl.r,
        "d": wl.n - wl.r,
        "calls": seg.calls,
        "splits": seg.splits,
        "share": shares(seg),
    }
    report["fail_ratio"] = failed / attempted
    report["failures"] = [f for s in segments for f in s.failures]
    report["environment"] = environment()
    wrappers_left = report.get("trace_detail", {}).get("wrappers_left")

    readable = dict(metrics)
    readable["fail_ratio"] = (report["fail_ratio"], "ratio")
    for name, (value, unit) in readable.items():
        print(f"{args.workload:<20} {name:<46} {value:>14.6g} {unit}")
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0 and not wrappers_left,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv],
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S + 30,
            cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-2]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hadlab" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        raw_setup_s, ref_setup_s, wl = set_up(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": raw_setup_s, "ref_setup_s": ref_setup_s}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
