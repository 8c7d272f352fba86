"""Capture the cli-mix expected outputs from the current ``src/qsde``.

Run from the repository root at the commit whose outputs are the
reference (the benchmark's references come from commit 5b03e5a):

    python3 perfbench/capture_reference.py

Writes perfbench/reference/<name>.out (stdout bytes) and manifest.json
(command line and exit code of each entry).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import climix


def main() -> int:
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), COLUMNS="80",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.makedirs(climix.REFERENCE_DIR, exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as workdir:
        climix.write_inputs(workdir)
        for name, _, argv, want_exit in climix.MIX:
            proc = subprocess.run([sys.executable, "-m", "qsde.cli", *argv], cwd=workdir, env=env,
                                  capture_output=True, timeout=120)
            if proc.returncode != want_exit:
                print(f"{name}: exit {proc.returncode}, want {want_exit}", file=sys.stderr)
                return 1
            with open(os.path.join(climix.REFERENCE_DIR, name + ".out"), "wb") as fh:
                fh.write(proc.stdout)
            manifest[name] = {"argv": argv, "exit": proc.returncode}
    with open(os.path.join(climix.REFERENCE_DIR, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
