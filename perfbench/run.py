"""The covercalc benchmark: one workload, one seed, one line of results.

Run from the repository root::

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # the three in turn

The parent process imports covercalc and builds the seeded inputs, then
runs passes over the workload's op list until ``--seconds`` have passed
(at least one pass). Load is a closed loop with one client: one op at a
time, no threads. Every op runs in a child forked from the parent, so it
starts from the parent's cold library caches; a ``session`` workload runs
a whole pass in one child, with the caches it fills along the way. Every
answer is checked against golden/. Every op is preceded by a timing of
the benchmark's own calibration kernel (calib.py) in the same process,
and the end-to-end times are scaled to a host of nominal speed by the
kernel's mean time in the same pass, so that the host's drift cancels
out. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run makes one untraced and one traced pass, and
writes its spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SPAWNS = 9  # fresh processes per run for setup_s and cold_start_s
SETUP_CALIBRATIONS = 3  # kernel timings per set-up process
COLD_START_ARGS = ["-m", "covercalc", "series", "C4->1"]

# numpy must not start a thread pool: load is one client, no threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class BenchError(Exception):
    """The benchmark cannot run or cannot finish its measurement."""


def import_program():
    """Import covercalc from this checkout's src/, and nothing else."""
    if not (SRC / "covercalc" / "__init__.py").is_file():
        raise BenchError(f"no covercalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import covercalc

    if Path(covercalc.__file__).resolve().parent != SRC / "covercalc":
        raise BenchError(f"imported covercalc from {covercalc.__file__}, not {SRC}")
    import workloads

    return workloads


def setup(workload: str, seed: int):
    wl = import_program()
    OUT.mkdir(exist_ok=True)
    w = wl.WORKLOADS[workload](seed, OUT)
    w.golden = wl.load_golden(workload)
    return w


# ---------------------------------------------------------------------------
# child processes


def in_child(fn, trace: bool, deadline: float) -> tuple[float, dict]:
    """Run ``fn()`` in a forked child; returns (wall seconds, child payload).

    The payload holds fn's result, the child's peak RSS, and with ``trace``
    its spans and hit counts. The child writes only to its pipe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        status = 1
        try:
            tracer = None
            if trace:
                import tracing

                tracer = tracing.install()
            payload = {"result": fn(tracer)}
            if tracer is not None:
                payload["spans"] = tracer.spans
                payload["hits"] = dict(tracer.hits)
            payload["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            status = 0
        except BaseException:
            payload = {"error": traceback.format_exc()}
        data = memoryview(pickle.dumps(payload))
        while data:
            data = data[os.write(w, data):]
        os._exit(status)
    os.close(w)
    chunks = []
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                raise BenchError("run exceeded its time limit")
            ready, _, _ = select.select([r], [], [], left)
            if ready:
                chunk = os.read(r, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    # the bytes come from our own forked child
    payload = pickle.loads(b"".join(chunks)) if chunks else {"error": "child died"}
    if "error" in payload:
        raise BenchError(f"child failed:\n{payload['error']}")
    return wall, payload


def run_ops(w, ops, tracer) -> list[dict]:
    """Run ``ops`` in this process, each after a timed call of the
    calibration kernel. An untimed call comes first: the first call after a
    fork pays copy-on-write faults, which are not the host's speed."""
    import calib

    records = []
    calib_start = time.perf_counter()
    calib.kernel()
    for op_id, op in ops:
        calib_s = calib.measure()
        calib_total_s = time.perf_counter() - calib_start
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            ok, detail, extras = w.run_op(op)
        except Exception:
            ok, detail, extras = False, traceback.format_exc(limit=3), {}
        latency = time.perf_counter() - start
        records.append(
            {"op": op_id, "key": w.key(op), "latency_s": latency, "calib_s": calib_s,
             "calib_total_s": calib_total_s, "ok": ok, "detail": detail, **extras}
        )
        calib_start = time.perf_counter()
    return records


def run_pass(w, trace: bool, deadline: float) -> dict:
    """One pass over the op list: raw wall time without the calibration
    timings, the pass's scale to nominal-host seconds, op records and
    child payloads."""
    import calib

    ops = list(enumerate(w.ops))
    batches = [ops] if w.session else [[item] for item in ops]
    start = time.perf_counter()
    payloads = []
    for batch in batches:
        _, payload = in_child(lambda tracer, b=batch: run_ops(w, b, tracer), trace, deadline)
        payloads.append(payload)
    wall = time.perf_counter() - start
    records = [rec for p in payloads for rec in p["result"]]
    return {
        "wall_s": wall - sum(rec["calib_total_s"] for rec in records),
        "scale": calib.factor([rec["calib_s"] for rec in records]),
        "records": records,
        "payloads": payloads,
    }


# ---------------------------------------------------------------------------
# fresh processes


def spawn_seconds(args: list[str], until_line: str | None, deadline: float) -> tuple[float, str]:
    """Seconds from spawning ``python3 args`` until it prints ``until_line``
    (or, when None, until it exits), and what it printed after that line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        if until_line is None:
            _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise BenchError(f"{args} exited {proc.returncode}: {err}")
            return elapsed, ""
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        if line.strip() != until_line or proc.returncode != 0:
            raise BenchError(f"{args} failed: {line!r} {err}")
        return elapsed, rest
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def setup_seconds(workload: str, seed: int, deadline: float) -> list[tuple[float, float]]:
    """(raw seconds, scale) of each set-up spawn. Once ready, the spawned
    process times the calibration kernel and prints its time, so the scale
    comes from the same process at the same moment."""
    import calib

    args = [str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    spawns = []
    for _ in range(SPAWNS):
        elapsed, rest = spawn_seconds(args, "ready", deadline)
        spawns.append((elapsed, calib.factor([float(x) for x in rest.split()])))
    return spawns


def setup_calibration() -> None:
    """In a --setup-only process once it is ready: print the kernel's time."""
    import calib

    calib.kernel()  # the first call pays for specializing the kernel's code
    print(" ".join(repr(calib.measure()) for _ in range(SETUP_CALIBRATIONS)), flush=True)


def cold_start_seconds(deadline: float) -> list[float]:
    return [spawn_seconds(COLD_START_ARGS, None, deadline)[0] for _ in range(SPAWNS)]


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], pct: float) -> float:
    """The Harrell-Davis estimate of the ``pct`` percentile.

    It weights every order statistic by a beta distribution centred on the
    percentile, so it does not jump when ops of distinct costs swap ranks
    between runs, as a single order statistic does.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    q = pct / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # the regularized incomplete beta I_x(a, b) at x = i/n, by integrating
    # the beta density on a fine grid
    x = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], x)), cdf, right=1.0))
    return float(weights @ ordered)


def end_to_end(w, passes, setups) -> tuple[dict, list[str]]:
    """End-to-end metrics; op and pass times in nominal-host seconds, with
    n and the raw figures in the notes."""
    raw = [rec["latency_s"] for p in passes for rec in p["records"]]
    latencies = [rec["latency_s"] * p["scale"] for p in passes for rec in p["records"]]
    n = len(latencies)
    rss_kb = max(pl["maxrss_kb"] for p in passes for pl in p["payloads"])
    values = {
        "setup_s": statistics.median(s * scale for s, scale in setups),
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_tail_ms": percentile(latencies, w.tail_pct) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    scales = [p["scale"] for p in passes]
    notes = [
        f"host scale (nominal / measured kernel time) per pass: {min(scales):.3f} to {max(scales):.3f}",
        f"setup_s: median of {len(setups)} fresh processes;"
        f" raw {statistics.median(s for s, _ in setups):.4f} s",
        f"wall_s: median of {len(passes)} passes of {len(w.ops)} ops;"
        f" raw {statistics.median(p['wall_s'] for p in passes):.4f} s",
        f"op_p50_ms: n={n}; raw {percentile(raw, 50) * 1e3:.3f} ms",
        f"op_tail_ms: p{w.tail_pct:g} (Harrell-Davis) of n={n},"
        f" {n - math.ceil(w.tail_pct / 100 * n)} samples beyond; raw {percentile(raw, w.tail_pct) * 1e3:.3f} ms",
    ]
    return values, notes


def per_layer(plain, traced, names) -> tuple[dict, list]:
    import tracing

    spans = [pl["spans"] for pl in traced["payloads"]]
    by_name = tracing.aggregate(spans)
    values = {}
    for layer in tracing.LAYERS:
        rows = [row for name, row in by_name.items() if name.startswith(layer + ".")]
        values[f"{layer}.calls"] = sum(r[0] for r in rows)
        values[f"{layer}.self_s"] = sum(r[1] for r in rows)
    for name, (calls, self_s) in by_name.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for name in tracing.HIT_TRACKED:
        hits = sum(pl["hits"].get(name, 0) for pl in traced["payloads"])
        calls = by_name[name][0] if name in by_name else 0
        values[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
    decision = sum(rec.get("decision_s", 0.0) for rec in plain["records"])
    search = sum(rec.get("search_s", 0.0) for rec in plain["records"])
    values["decide.decision_s"] = decision
    values["decide.search_s"] = search
    values["decide.decision_over_search"] = decision / search if search else 0.0
    values["trace.overhead"] = (traced["wall_s"] * traced["scale"]) / (plain["wall_s"] * plain["scale"])
    values["host.calib_ms"] = statistics.median(rec["calib_s"] for rec in plain["records"]) * 1e3
    for name in names:
        if name.endswith((".calls", ".self_s")):
            values.setdefault(name, 0)  # a function this workload never calls
    return values, spans


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("child\top\tspan\tparent\tname\tstart\tend\n")
        for child, rows in enumerate(spans):
            for idx, (name, start, end, parent, op) in enumerate(rows):
                fh.write(f"{child}\t{op}\t{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covercalc benchmark")
    parser.add_argument("--workload", required=True, choices=["cli", "decide", "h2", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(ns.seed),
                 "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
            ).returncode
            for name in ("cli", "decide", "h2")
        ]
        return max(codes)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        w = setup(ns.workload, ns.seed)
        if ns.setup_only:
            print("ready", flush=True)
            setup_calibration()
            return 0
        if ns.trace:
            plain = run_pass(w, False, deadline)
            traced = run_pass(w, True, deadline)
            passes = [plain, traced]
            names = [m["name"] for m in spec["per_layer"]]
            values, spans = per_layer(plain, traced, names)
            colds = cold_start_seconds(deadline)
            values["cold_start_s"] = statistics.median(colds)
            write_spans(OUT / f"spans-{ns.workload}-seed{ns.seed}.tsv", spans)
            notes = [
                f"spans: {sum(map(len, spans))} in .perfbench_out/spans-{ns.workload}-seed{ns.seed}.tsv",
                f"cold_start_s: median of {len(colds)} spawns of python3 {' '.join(COLD_START_ARGS)}",
            ]
            wanted = spec["per_layer"]
        else:
            setups = setup_seconds(ns.workload, ns.seed, deadline)
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < ns.seconds:
                passes.append(run_pass(w, False, deadline))
            values, notes = end_to_end(w, passes, setups)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = [rec for p in passes for rec in p["records"]]
    failed = [rec for rec in records if not rec["ok"]]
    for rec in failed[:10]:
        print(f"FAILED op {rec['key']}: {rec['detail']}", file=sys.stderr)
    print(f"workload {ns.workload}, seed {ns.seed}: {len(records)} ops, {len(failed)} failed,"
          f" fail_ratio {len(failed) / len(records):.4g}")
    for note in notes:
        print(note)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
