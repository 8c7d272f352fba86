"""Child process of the benchmark: imports qsde, generates inputs, runs ops.

    python3 perfbench/worker.py {setup,run,trace} --workload W --seed N --seconds S --root DIR

``setup`` stops after input generation; ``run`` measures library ops in a
closed loop for S seconds (whole rounds, so every input class keeps its
share); ``trace`` runs the workload's fixed trace batch once plainly and
once under the tracer, then, on verdict-sweep, the fixed near-flip probe
panel. The last stdout line is one JSON object for the parent,
perfbench/run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_qsde(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qsde

    if not os.path.abspath(qsde.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"qsde imported from {qsde.__file__}, not from {src}")
    return qsde


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


class Workload:
    """Inputs and ops of one workload; the ops call the public qsde API."""

    def __init__(self, name: str, seed: int, qsde):
        import climix
        import inputs

        self.name, self.seed, self.qsde = name, seed, qsde
        self._inputs = inputs
        self.workdir = os.path.join(HERE, "_work")
        if name == "verdict-sweep":
            self.round = len(inputs.VERDICT_CLASSES)
            self._pool = [self._verdict(i) for i in range(20 * self.round)]
        elif name == "census-sweep":
            self.round = inputs.CENSUS_ROUND
            self._pool = [inputs.census_call(seed, i) for i in range(40 * self.round)]
        else:
            climix.write_inputs(self.workdir)
            self.reference = climix.load_reference()
            self.round = len(climix.MIX)
            self._pool = list(climix.MIX)

    def _verdict(self, index: int) -> dict:
        return self._couple(self._inputs.verdict_input(self.seed, index))

    def _couple(self, inp: dict) -> dict:
        coupling = self.qsde.Coupling
        inp["c1"] = coupling(inp["u1"], inp["v1"], inp["gamma"])
        inp["c2"] = coupling(inp["u2"], inp["v2"], inp["gamma"])
        return inp

    def item(self, index: int):
        if index >= len(self._pool):
            if self.name == "verdict-sweep":
                return self._verdict(index)
            if self.name == "census-sweep":
                return self._inputs.census_call(self.seed, index)
            return self._pool[index % len(self._pool)]
        return self._pool[index]

    def op(self, index: int) -> dict:
        """Run and check op ``index``; ms covers only the library call."""
        import oracles

        qsde = self.qsde
        if self.name == "verdict-sweep":
            return self.verdict_op(self.item(index))
        n, seed = self.item(index)
        record = {"index": index, "class": "small" if n < 1_000_000 else "large", "n": n}
        t0 = time.perf_counter()
        try:
            out = qsde.census.run_census(n, seed=seed).to_dict()
        except (qsde.QsdeError, ValueError) as exc:
            record["ms"] = 1e3 * (time.perf_counter() - t0)
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
        record["ms"] = 1e3 * (time.perf_counter() - t0)
        record["problems"] = oracles.check_census(n, seed, out, recompute=n < 1_000_000)
        return record

    def verdict_op(self, inp: dict) -> dict:
        import oracles

        qsde = self.qsde
        record = {"index": inp["index"], "class": inp["class"]}
        t0 = time.perf_counter()
        try:
            out = qsde.sde.sde_check(inp["state"]["rho"], inp["c1"], inp["c2"]).to_dict()
        except qsde.QsdeError as exc:
            record["ms"] = 1e3 * (time.perf_counter() - t0)
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
        record["ms"] = 1e3 * (time.perf_counter() - t0)
        record["problems"] = oracles.check_verdict(inp, out)
        return record

    def probe(self) -> list:
        """The fixed near-flip probe panel, run plainly after the trace batch."""
        panel = [self._couple(self._inputs.probe_input(i)) for i in range(len(self._inputs.PROBE))]
        return [dict(self.verdict_op(inp), probe=self._inputs.PROBE[inp["index"]]) for inp in panel]

    def main_call(self, entry) -> tuple[int, bytes, bytes, float]:
        """In-process qsde.cli.main(argv): exit code, stdout, stderr, seconds."""
        name, label, argv, _ = entry
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.qsde.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        finally:
            elapsed = time.perf_counter() - t0
            os.chdir(cwd)
        return code, out.getvalue().encode(), err.getvalue().encode(), elapsed


def run(work: Workload, seconds: float) -> dict:
    """Whole rounds while the next one, as long as the last, still fits.

    Each op is bracketed by the calibration kernel; its record gets the
    factor that scales its latency to the kernel's reference speed.
    """
    import numpy as np

    import calib

    ops = []
    start = time.perf_counter()
    index = 0
    kernel = calib.kernel_ms(np)
    while True:
        begun = time.perf_counter()
        for _ in range(work.round):
            record = work.op(index)
            after = calib.kernel_ms(np)
            record["scale"] = calib.scale(kernel, after, with_linalg=True)
            ops.append(record)
            kernel = after
            index += 1
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return {"ops": ops}


def trace(work: Workload, rounds: int, modules: dict) -> dict:
    import climix
    from tracing import Tracer, summarize

    count = rounds * work.round
    tracer = Tracer(modules)
    # one round first, so first-call costs land in neither timed pass; then
    # each op runs plainly and at once traced, so that a change of the
    # machine's speed hits both passes alike
    if work.name == "cli-mix":
        entries = [work.item(i) for i in range(count)]
        for entry in entries[: work.round]:
            work.main_call(entry)
        plain, ops, traced = [], [], 0.0
        for entry in entries:
            plain.append(work.main_call(entry))
            with tracer:
                traced += tracer.call("cli.main", work.main_call, entry)[3]
        untraced = sum(p[3] for p in plain)
        main_ms = {label: 0.0 for label in climix.LABELS}
        emit = {label: 0 for label in climix.LABELS}
        mismatches = 0
        for entry, (code, out, err, elapsed) in zip(entries, plain):
            name, label = entry[0], entry[1]
            main_ms[label] += 1e3 * elapsed / rounds
            emit[label] += len(out) // rounds
            mismatches += out != work.reference[name]["stdout"]
            problems = climix.check(name, code, out, err, work.reference)
            ops.append({"class": label, "ms": 1e3 * elapsed, "problems": problems})
        extra = {"main_ms": main_ms, "emit_bytes": emit, "byte_mismatches": mismatches}
    else:
        for i in range(work.round):
            work.op(i)
        ops, traced = [], 0.0
        for i in range(count):
            ops.append(work.op(i))
            with tracer:
                traced += work.op(i)["ms"] / 1e3
        untraced = sum(op["ms"] for op in ops) / 1e3
        extra = {"probe": work.probe() if work.name == "verdict-sweep" else []}
    return {"ops": ops, "summary": summarize(tracer.spans), "untraced_s": untraced,
            "traced_s": traced, **extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)

    qsde = _import_qsde(args.root)
    import qsde.cli  # noqa: F401  (the cli module is part of the import a user pays for)

    t0 = time.perf_counter()
    work = Workload(args.workload, args.seed, qsde)
    result = {"ready": time.monotonic(), "inputs_ms": 1e3 * (time.perf_counter() - t0)}
    if args.mode == "setup":
        result["facts"] = machine_facts()
    elif args.mode == "run":
        result.update(run(work, args.seconds))
    else:
        modules = {name: getattr(qsde, name) for name in ("channel", "choi", "pair", "sde", "census", "cli")}
        result.update(trace(work, args.rounds, modules))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
