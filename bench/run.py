#!/usr/bin/env python3
"""Benchmark of the containment toolkit.

Run from the repository root:

    python3 bench/run.py --workload paper-example2 --seed 1 --seconds 20 --trace 0

One process drives all load as one closed-loop client: no threads, each op
runs to completion before the next starts, and BLAS is pinned to one thread
before numpy is imported. The program is imported from ``src/`` of the
checkout this file sits in; nothing is installed.

``--trace 0`` measures the end-to-end metrics: an untimed memory pass under
tracemalloc, then timed ops until ``--seconds`` of op time have passed. Set-up
probes (fresh interpreters) run between the timed ops, spread evenly over
them. The machine's speed swings by up to 2x, so a fixed calibration chunk
is timed while the ops run (see ``Speed``) and every time is scaled to the
reference speed, at which the chunk takes ``REF_CAL_NS``; the wall-clock
figures are printed too. ``--trace 1`` alternates untraced and traced
rounds of ops for ``--seconds`` and reports the per-layer metrics, per traced
op. Every op's output is checked; a failed op is counted, never dropped.

Human-readable lines come first. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with provenance, goes to ``.bench_out/`` in the checkout,
and so do the spans of a traced run.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import contextlib
import hashlib
import io
import json
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper-example2", "verify-campaign", "large-swarm")
SETUP_PROBES = 21
P90_MIN_OPS = 100
CAL_PERIOD_S = 0.02  # interval between calibration samples inside an op
CAL_WINDOW = 10  # fewest samples an op's scale is taken from
REF_CAL_NS = 450_000  # calibration chunk's time at the reference speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "peak_alloc_mb": "MB",
}
PER_LAYER_UNITS = {
    "dynamics.self_ms": "ms",
    "dynamics.steps": "count",
    "dynamics.segments": "count",
    "scenario_io.self_ms": "ms",
    "scenario_io.bytes_written": "B",
    "scenario_io.bytes_read": "B",
    "geometry.self_ms": "ms",
    "geometry.points": "count",
    "geometry.calls": "count",
    "geometry.kkt_cache_hit_ratio": "ratio",
    "linalg.self_ms": "ms",
    "linalg.eig_calls": "count",
    "linalg.eig_n3": "count",
    "linalg.solve_calls": "count",
    "sampling.self_ms": "ms",
    "analysis.self_ms": "ms",
    "analysis.reports": "count",
    "graph.self_ms": "ms",
    "graph.calls": "count",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


class _Discard(io.TextIOBase):
    """Swallows what the CLI prints, so the result line stays last."""

    def write(self, s):
        return len(s)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            if not self.failed:
                print(f"first failed op: {detail}", file=sys.stderr)
            self.failed += 1


def run_op(wl, arg, tally: Tally, tracer=None, speed=None) -> int:
    """Run and check one op; return its wall time in nanoseconds.

    With ``speed``, the machine's speed is sampled during the op; the time
    the samples take is left out of the op's.
    """
    wl.reset()
    out = error = None
    with speed.sampling() if speed else contextlib.nullcontext():
        start = time.perf_counter_ns()
        try:
            with tracer.op(tally.attempted) if tracer else contextlib.nullcontext():
                out = wl.run_op(arg)
        except Exception:  # a crashing op is a failed op; the run goes on
            error = traceback.format_exc()
    elapsed = time.perf_counter_ns() - start
    if speed:
        elapsed = speed.record(elapsed)
    try:
        ok = error is None and wl.check(arg, out)
        detail = error or f"{wl.name} op {arg!r:.80} gave a wrong output"
    except Exception:
        ok, detail = False, traceback.format_exc()
    tally.record(ok, detail)
    return elapsed


_CAL_MATRIX = None


def calibrate() -> int:
    """Time of one run of a fixed chunk of work, in nanoseconds.

    The chunk never calls the program, so its time tracks only the machine's
    speed. Its three parts take about the same time: an interpreter loop over
    floats, 96x96 matrix products, and float formatting. Other tenants of
    the host slow those parts by different factors, and this mix slows by
    about as much as the ops of paper-example2 and large-swarm do.
    """
    global _CAL_MATRIX
    if _CAL_MATRIX is None:
        import numpy as np

        _CAL_MATRIX = np.random.default_rng(0).uniform(size=(96, 96))
    start = time.perf_counter_ns()
    acc = 0.0
    for i in range(1000):
        acc += i * 0.5 - (i % 7)
    for _ in range(4):
        _CAL_MATRIX @ _CAL_MATRIX
    ",".join(f"{0.1 * i:.17g}" for i in range(200))
    return time.perf_counter_ns() - start


class Speed:
    """Scales op times to the reference speed.

    Other tenants of the host slow this machine in bursts of milliseconds,
    by up to 2x, and how dense the bursts are changes over minutes, so
    runs of the same code minutes apart differ by more than any statistic
    within a run can remove. While an op runs, a SIGALRM every
    ``CAL_PERIOD_S`` times ``calibrate()``; the op's scale is
    ``REF_CAL_NS`` over the mean of the samples taken during it, or of the
    last ``CAL_WINDOW`` samples when it had fewer. The mean, not the median:
    an op slows by the share of its time spent in bursts, and the samples'
    mean tracks that share. A sample over three times the median is clipped
    there: a context switch or page fault hit the sample, not the op.
    """

    def __init__(self):
        self.samples = [calibrate() for _ in range(CAL_WINDOW)]
        self.scaled = []
        self.first = self.sample_ns = 0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        start = time.perf_counter_ns()
        self.samples.append(calibrate())
        self.sample_ns += time.perf_counter_ns() - start

    @contextlib.contextmanager
    def sampling(self):
        self.first, self.sample_ns = len(self.samples), 0
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def record(self, elapsed: int) -> int:
        """Keep the op's time at the reference speed; return its wall time
        without the samples'."""
        elapsed -= self.sample_ns
        during = self.samples[self.first:]
        if len(during) < CAL_WINDOW:
            during = self.samples[-CAL_WINDOW:]
        cap = 3 * statistics.median(during)
        self.scaled.append(elapsed * REF_CAL_NS / statistics.fmean(min(v, cap) for v in during))
        return elapsed


def run_ops(wl, tally, seconds, start_at=0, between=None, speed=None) -> list[int]:
    """Cycle through the round from ``start_at`` until ``seconds`` have passed.

    ``between(done)`` runs after each op with the fraction of the run's time
    done, 1.0 after the last op; the seconds it returns are left out of the
    run's time.
    """
    deadline = time.perf_counter() + seconds
    latencies = []
    while True:
        arg = wl.round[(start_at + len(latencies)) % len(wl.round)]
        latencies.append(run_op(wl, arg, tally, speed=speed))
        left = max(0.0, deadline - time.perf_counter())
        if between:
            deadline += between(1.0 - left / seconds)
        if not left:
            return latencies


class SetupProbes:
    """Fresh interpreters that import containment and build the inputs.

    Each child prints CLOCK_MONOTONIC once its inputs exist; the clock is
    shared across processes, so the difference counts interpreter start-up.
    The machine's speed drifts over seconds, so the probes are spread over
    the timed ops instead of run back to back. Each is scaled to the
    reference speed by the median of ``CAL_WINDOW`` calibrations, half taken
    just before it and half just after.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload",
                    args.workload, "--seed", str(args.seed), "--seconds", "1", "--trace", "0"]
        self.times, self.scaled = [], []

    def __call__(self, done: float) -> float:
        """Run the probes due once ``done`` of the run has passed; return their seconds."""
        start = time.perf_counter()
        while len(self.times) < round(done * SETUP_PROBES):
            cal = [calibrate() for _ in range(CAL_WINDOW // 2)]
            begin = time.monotonic()
            out = subprocess.run(self.cmd, capture_output=True, text=True, check=True,
                                 timeout=120).stdout
            self.times.append(float(out.split()[-1]) - begin)
            cal += [calibrate() for _ in range(CAL_WINDOW // 2)]
            self.scaled.append(self.times[-1] * REF_CAL_NS / statistics.median(cal))
        return time.perf_counter() - start


def alloc_peaks(wl, tally) -> list[int]:
    """Per-op tracemalloc peak above the op's starting level, untimed."""
    peaks = []
    tracemalloc.start()
    try:
        for arg in wl.round[: wl.alloc_ops]:
            wl.reset()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_op(wl, arg, tally)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peaks


def end_to_end(args, wl, tally):
    peaks = alloc_peaks(wl, tally)
    probes, speed = SetupProbes(args), Speed()
    lat = run_ops(wl, tally, args.seconds, between=probes, speed=speed)
    n, setup = len(lat), probes.scaled
    ms = sorted(v / 1e6 for v in speed.scaled)
    wall_ms = sorted(v / 1e6 for v in lat)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (n / (sum(speed.scaled) / 1e9), n),
        "op_ms.p50": (statistics.median(ms), n),
        # median over ops: the highest peak is set by one heavy-tailed trial
        # and swings with the seed on verify-campaign
        "peak_alloc_mb": (statistics.median(peaks) / 1e6, len(peaks)),
    }
    info = {
        "op_ms.p90": (statistics.quantiles(ms, n=10)[-1] if n >= P90_MIN_OPS else None,
                      "ms", n),
        "peak_alloc_mb.max": (max(peaks) / 1e6, "MB", len(peaks)),
        "setup_s.wall": (statistics.median(probes.times), "s", len(probes.times)),
        "ops_per_s.wall": (n / (sum(lat) / 1e9), "1/s", n),
        "op_ms.p50.wall": (statistics.median(wall_ms), "ms", n),
    }
    return metrics, info, {"setup_s": setup, "setup_s_wall": probes.times, "op_ns": speed.scaled,
                           "op_ns_wall": lat, "alloc_peak_bytes": peaks}


def per_layer(args, wl, tally):
    from containment import geometry
    from spans import Tracer

    tracer = Tracer()
    run_op(wl, wl.round[0], tally)  # warm-up, untimed
    cache_info = getattr(getattr(geometry, "_subset_solvers", None), "cache_info", None)
    plain, traced, hits, lookups = [], [], 0, 0
    deadline = time.perf_counter() + args.seconds
    # Blocks of untraced ops, each followed by the same ops traced, so that
    # slow drifts in machine speed hit both sides of trace.overhead_frac.
    while time.perf_counter() < deadline:
        at = len(plain)
        plain += run_ops(wl, tally, args.seconds / 4, start_at=at)
        before = cache_info() if cache_info else None
        tracer.install()
        try:
            traced += [run_op(wl, wl.round[i % len(wl.round)], tally, tracer)
                       for i in range(at, len(plain))]
        finally:
            tracer.uninstall()
        if cache_info:
            after = cache_info()
            hits += after.hits - before.hits
            lookups += after.hits + after.misses - before.hits - before.misses
    ops = len(traced)
    self_ms = tracer.self_ms()
    metrics = {}
    for name in PER_LAYER_UNITS:
        layer, what = name.split(".", 1)
        if what == "self_ms":
            value = self_ms[layer] / ops
        elif name == "geometry.kkt_cache_hit_ratio":
            value = hits / lookups if lookups else 0.0
        elif name == "trace.overhead_frac":
            value = sum(traced) / sum(plain) - 1.0
        else:
            value = tracer.counts[name] / ops
        metrics[name] = (value, ops)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    info = {"geometry.kkt_cache_lookups": (lookups, "count", ops)}
    return metrics, info, {"plain_op_ns": plain, "traced_op_ns": traced}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "containment").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "containment" / "__init__.py").is_file():
        print(f"error: no containment sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    wl = workloads.build(args.workload, args.seed, OUT / "work")
    if args.setup_probe:
        print(time.monotonic())
        return 0
    tally = Tally()
    with contextlib.redirect_stdout(_Discard()):
        measure = per_layer if args.trace else end_to_end
        metrics, info, samples = measure(args, wl, tally)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    info["fail_frac"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    record = {
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "info": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in info.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "samples": samples,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, m in list(record["metrics"].items()) + list(record["info"].items()):
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload}  {name:<30} {shown:>14} {m['unit']:<6} (n={m['samples']})")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
