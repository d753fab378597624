"""Capture bench/golden.json from the current sources.

    python3 bench/capture_golden.py

Records sha256 hashes of the `sweep` CSVs (every model, 1001 points on
[0, 1]), the `verify --depth full` stdout of every model, and the
`decompose` output of every case generated from seeds 0..DECOMPOSE_SEEDS-1,
keyed by a hash of the case's input files.  Every output must pass its
oracle before it is recorded.  The Python, numpy and BLAS/LAPACK build,
CPU count, commit and src/ line count are stored beside the hashes: the
sweep bytes depend on the order in which LAPACK returns eigenvalues.

The script refuses to overwrite an existing golden file; re-goldening is
a deliberate act of deleting it first and saying why.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # pins BLAS threads and clears OSC_PERT_TOL before numpy loads

DECOMPOSE_SEEDS = 64


def main() -> int:
    if run.GOLDEN.exists():
        print(f"error: {run.GOLDEN} exists; delete it deliberately to re-golden", file=sys.stderr)
        return 1
    run.import_oscpert()
    import numpy as np

    import workloads as w

    config = np.show_config(mode="dicts")["Build Dependencies"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    golden = {
        "captured": {
            "commit": commit,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{config['blas'].get('name')} {config['blas'].get('version')}",
            "lapack": f"{config['lapack'].get('name')} {config['lapack'].get('version')}",
            "openblas_configuration": config["blas"].get("openblas configuration"),
            "blas_threads": 1,
            "nproc": os.cpu_count(),
            "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in (run.SRC / "oscpert").glob("*.py")),
            "sweep_steps": w.SWEEP_STEPS,
            "decompose_seeds": [0, DECOMPOSE_SEEDS - 1],
        },
        "sweep": {},
        "verify": {},
        "decompose": {},
    }
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=run.ROOT)
    try:
        csv = os.path.join(workdir, "sweep.csv")
        for model in w.MODELS:
            w.run_cli(["sweep", "--model", model, "--steps", str(w.SWEEP_STEPS), "--out", csv])
            with open(csv, "rb") as fh:
                golden["sweep"][model] = w.sha256(fh.read())
            stdout = w.run_cli(["verify", "--model", model, "--depth", "full"])[1]
            if not w.verify_err_ratio(stdout) <= 1.0 or "FAIL" in stdout:
                raise SystemExit(f"verify output for {model} fails its own tolerances")
            golden["verify"][model] = w.sha256(stdout.encode())
        for seed in range(DECOMPOSE_SEEDS):
            wl = w.Decompose({"decompose": {}}, workdir)
            wl.setup(seed)
            for case in range(len(wl.cases)):
                wl.check(case, wl.op(case))
                key, digest = wl.output_digest(case)
                golden["decompose"][key] = digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
