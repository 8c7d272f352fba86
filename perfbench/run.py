"""The qsde benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload {verdict-sweep,census-sweep,cli-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src. Load
is a closed loop from one client: this process starts one child at a time
(the library worker, or one ``python -m qsde.cli`` per command) and waits
for it. It never imports numpy, so its own memory stays out of the
children's peak RSS. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a traced run; the last stdout line is one JSON
object {correct, attempted, failed, metrics}. NOTES.md says why each
workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import climix  # noqa: E402

WORKLOADS = ("verdict-sweep", "census-sweep", "cli-mix")
SETUP_REPEATS = 9
START_REPEATS = 5
# fixed trace batches, in rounds of the workload (one input per class)
TRACE_ROUNDS = {"verdict-sweep": 2, "census-sweep": 3, "cli-mix": 1}
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10


class BenchError(Exception):
    """A child failed in a way the benchmark cannot account for."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["COLUMNS"] = "80"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd: list, env: dict, cwd: str, timeout: float = CHILD_TIMEOUT_S):
    """Run one child to completion: (exit code, stdout, stderr, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{cmd[1:4]} did not finish in {timeout} s")
    return proc.returncode, out, err, time.perf_counter() - t0


def worker(mode: str, args, root: str, env: dict, extra=()) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--root", root, *extra]
    code, out, err, _ = run_child(cmd, env, root)
    if code != 0:
        raise BenchError(f"worker {mode} exited {code}: {err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def measure_setup(args, root: str, env: dict) -> tuple[list, dict]:
    """Fresh interpreter + import qsde + input generation, up to the first op."""
    samples, report = [], {}
    kernel = calib.kernel_ms()
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        report = worker("setup", args, root, env)
        seconds = report["ready"] - t0
        after = calib.kernel_ms()
        samples.append({"ms": 1e3 * seconds, "scale": calib.scale(kernel, after, with_linalg=False)})
        kernel = after
    return samples, report


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def run_cli_mix(args, root: str, env: dict) -> list:
    """Closed loop over whole cycles of the mix, each in a seeded order."""
    workdir = os.path.join(HERE, "_work")
    climix.write_inputs(workdir)
    reference = climix.load_reference()
    order_rng = random.Random(args.seed)
    ops = []
    start = time.perf_counter()
    kernel = calib.kernel_ms()
    while True:
        begun = time.perf_counter()
        cycle = list(climix.MIX)
        order_rng.shuffle(cycle)
        for name, label, argv, _ in cycle:
            code, out, err, seconds = run_child([sys.executable, "-m", "qsde.cli", *argv], env, workdir)
            after = calib.kernel_ms()
            ops.append({"class": label, "name": name, "ms": 1e3 * seconds,
                        "scale": calib.scale(kernel, after, with_linalg=False),
                        "problems": climix.check(name, code, out, err, reference),
                        "byte_mismatch": out != reference[name]["stdout"]})
            kernel = after
        now = time.perf_counter()
        if now - start + (now - begun) > args.seconds:
            return ops


def scaled(op: dict) -> float:
    """Milliseconds of an op at the calibration kernel's reference speed."""
    return op["ms"] * op["scale"]


def _typical_round_s(ops: list, key: str) -> tuple[float, int]:
    """Seconds for one input of each kind, at each kind's median latency.

    Medians per kind keep one slow input, or a stall of the machine, from
    swinging the rate, while every kind keeps its share of the round.
    """
    groups: dict = {}
    for op in ops:
        groups.setdefault(op[key], []).append(scaled(op))
    return sum(statistics.median(ms) for ms in groups.values()) / 1e3, len(groups)


def end_to_end(workload: str, ops: list, setup: list) -> tuple[dict, list]:
    lines = []
    if workload == "census-sweep":
        large = [op for op in ops if op["class"] == "large"]
        timed = [op for op in ops if op["class"] == "small"]
        rate = large[0]["n"] / (statistics.median(scaled(op) for op in large) / 1e3)
        lines.append(f"throughput: samples per second of the median call of n = {large[0]['n']} "
                     f"({len(large)} calls); latencies: the {len(timed)} calls of n = {ops[1]['n']}")
    else:
        timed = ops
        key = "class" if workload == "verdict-sweep" else "name"
        round_s, kinds = _typical_round_s(ops, key)
        rate = kinds / round_s
        unit = "verdicts" if workload == "verdict-sweep" else "CLI commands"
        lines.append(f"throughput: {unit} per second over a round of the median op of each of "
                     f"{kinds} kinds ({len(ops)} ops)")
    latency = [scaled(op) for op in timed]
    tail_ms, pct = tail(latency)
    lines.append(f"tail_ms is p{pct:.1f} of {len(latency)} samples, "
                 f"{min(TAIL_BEYOND, len(latency) - 1)} beyond it")
    lines.append(f"times are scaled to the calibration kernel's reference speed (median factor "
                 f"{statistics.median(op['scale'] for op in ops):.3f}); unscaled p50 "
                 f"{statistics.median(op['ms'] for op in timed):.2f} ms, tail "
                 f"{tail([op['ms'] for op in timed])[0]:.2f} ms")
    lines.append("setup_s samples (scaled, unscaled): "
                 + ", ".join(f"{scaled(s) / 1e3:.4f} {s['ms'] / 1e3:.4f}" for s in setup))
    metrics = {
        "setup_s": (statistics.median(scaled(s) for s in setup) / 1e3, "s"),
        "throughput": (rate, "1/s"),
        "p50_ms": (statistics.median(latency), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, lines


def per_layer(report: dict, starts: list, imports: list) -> dict:
    s = report["summary"]
    calls, self_s = s["calls"], s["self_s"]

    def n(label):
        return calls.get(label, 0)

    def us(label):
        return 1e6 * self_s.get(label, 0.0)

    lam_evals = s["scan_points"] + s["bisection_evals"] + s["late_evals"]
    metrics = {
        "channel.classify.calls": (n("channel.classify"), "count"),
        "channel.evolve.calls": (n("channel.evolve"), "count"),
        "channel.evolve.self_us": (us("channel.evolve"), "us"),
        "choi.choi_of_channel.self_us": (us("choi.choi_of_channel"), "us"),
        "choi.kraus_of_choi.self_us": (us("choi.kraus_of_choi"), "us"),
        "choi.kraus_of_coupling.calls": (n("choi.kraus_of_coupling"), "count"),
        "pair.evolve_pair.calls": (n("pair.evolve_pair"), "count"),
        "pair.evolve_pair.self_us": (us("pair.evolve_pair"), "us"),
        "pair.concurrence.calls": (n("pair.concurrence"), "count"),
        "pair.concurrence.self_us": (us("pair.concurrence"), "us"),
        "pair.lambda_trajectory.points": (s["trajectory_points"], "count"),
        "pair.lambda_trajectory.self_ms": (us("pair.lambda_trajectory") / 1e3, "ms"),
        "pair.lambda_at.calls": (n("pair.lambda_at"), "count"),
        "sde.lam_evals_per_verdict": (lam_evals / s["verdicts"] if s["verdicts"] else 0.0, "count"),
        "sde.detect_tau.bisection_evals": (s["bisection_evals"], "count"),
        "sde.detect_tau.self_us": (us("sde.detect_tau"), "us"),
        "sde.criterion.self_us": (us("sde.criterion"), "us"),
        "sde.grid_too_coarse": (s["grid_too_coarse"] + sum(
            (op.get("error") or "").startswith("GridTooCoarse") for op in report.get("probe", [])), "count"),
        "sde.probe_failed": (sum(_failed(op) for op in report.get("probe", [])), "count"),
        "sde.scan_share": (s["scan_s"] / s["verdict_s"] if s["verdict_s"] else 0.0, "frac"),
        "census.small_us_per_sample": (s["census_small_us_per_sample"], "us"),
        "census.large_us_per_sample": (s["census_large_us_per_sample"], "us"),
        "census.traced_peak_mb": (s["census_peak_mb"], "MB"),
        "cli.interp_start_ms": (statistics.median(starts), "ms"),
        "cli.import_ms": (statistics.median(imports) - statistics.median(starts), "ms"),
    }
    for label in climix.LABELS:
        metrics[f"cli.main_ms.{label}"] = (report.get("main_ms", {}).get(label, 0.0), "ms")
        metrics[f"cli.emit_bytes.{label}"] = (report.get("emit_bytes", {}).get(label, 0), "bytes")
    metrics["cli.byte_mismatches"] = (report.get("byte_mismatches", 0), "count")
    metrics["setup.inputs_ms"] = (report["inputs_ms"], "ms")
    metrics["trace.overhead_frac"] = (report["traced_s"] / report["untraced_s"] - 1.0, "frac")
    return metrics


def time_children(cmd: list, env: dict, root: str) -> list:
    samples = []
    for _ in range(START_REPEATS):
        code, _, err, seconds = run_child(cmd, env, root)
        if code != 0:
            raise BenchError(f"{cmd} exited {code}: {err.decode(errors='replace')[-500:]}")
        samples.append(1e3 * seconds)
    return samples


def _failed(op: dict) -> bool:
    return bool(op.get("error") or op.get("problems"))


def probe_lines(probe: list) -> list:
    bad = [op for op in probe if _failed(op)]
    lines = [f"near-flip probe (fixed panel, not among the ops): {len(bad)} of {len(probe)} inputs fail"]
    for op in probe:
        what = op.get("error") or "; ".join(op["problems"]) or "ok"
        w1, w2, gamma = op["probe"]
        lines.append(f"probe |w| = {w1:g}, {w2:g}, gamma {gamma:g}: {op['ms']:.0f} ms, {what[:200]}")
    return lines


def breakdown(ops: list) -> list:
    lines, classes = [], {}
    for op in ops:
        classes.setdefault(op["class"], []).append(op)
    for cls, group in classes.items():
        bad = [op for op in group if _failed(op)]
        lines.append(f"class {cls}: {len(group)} ops ({100.0 * len(group) / len(ops):.1f}%), "
                     f"{len(bad)} failed, p50 {statistics.median(op['ms'] for op in group):.2f} ms")
    for op in ops:
        if _failed(op):
            what = op.get("error") or "; ".join(op["problems"])
            lines.append(f"failed {op['class']} #{op.get('index', op.get('name'))}: {what[:300]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qsde", "__init__.py")):
        print("error: run from a checkout root: src/qsde is missing", file=sys.stderr)
        return 2
    env = child_env(root)
    usable = sorted(os.sched_getaffinity(0))
    # this process and every child on one CPU: the calibration kernel then
    # times the CPU the op it brackets ran on
    os.sched_setaffinity(0, {usable[0]})
    try:
        setup, report = measure_setup(args, root, env)
        facts = report["facts"]
        lines = [f"machine: nproc {os.cpu_count()}, usable cores {len(usable)}, pinned to cpu {usable[0]}, "
                 f"python {platform.python_version()}, numpy {facts['numpy']}, blas {facts['blas']}, "
                 + ", ".join(f"{v}={env[v]}" for v in THREAD_VARS),
                 f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}"]
        if args.trace:
            starts = time_children([sys.executable, "-c", "pass"], env, root)
            imports = time_children([sys.executable, "-c", "import qsde"], env, root)
            rounds = args.trace_rounds or TRACE_ROUNDS[args.workload]
            result = worker("trace", args, root, env, ["--rounds", str(rounds)])
            ops = result["ops"]
            metrics = per_layer(result, starts, imports)
            lines.append(f"trace batch: {len(ops)} ops, untraced {result['untraced_s']:.3f} s, "
                         f"traced {result['traced_s']:.3f} s")
            if result.get("probe"):
                lines += probe_lines(result["probe"])
        else:
            if args.workload == "cli-mix":
                ops = run_cli_mix(args, root, env)
                lines.append(f"byte mismatches against the capture: "
                             f"{sum(op['byte_mismatch'] for op in ops)} of {len(ops)} commands")
            else:
                ops = worker("run", args, root, env)["ops"]
            metrics, more = end_to_end(args.workload, ops, setup)
            lines += more
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(_failed(op) for op in ops)
    lines += breakdown(ops)
    lines.append(f"failed_frac = {failed / len(ops):.4f} ({failed} of {len(ops)} ops)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value!r} {unit}")
    print("\n".join(lines))
    # every op was checked: raised errors, wrong exit codes and answers its
    # oracle rejects are all counted in failed
    print(json.dumps({"correct": True, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
