"""Record the reference outputs the benchmark checks every run against.

Usage (from the repository root, on a commit whose outputs are trusted):

    python3 perfbench/record_reference.py --seeds 0-31,42

Runs simulate -> fuse -> eval through the CLI for every workload and seed
and writes ``perfbench/reference.json``: the fuse stats fields once per
workload (they depend only on geometry, which this script verifies across
seeds) and the eval fields per seed. The entry of each recorded workload
is replaced as a whole. Snapshot bytes are not recorded, so a deliberate
snapshot format change does not count as a wrong output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import (REFERENCE, RUN_LIMIT_S, WORK, Paths, eval_argv, eval_fields, fuse_argv,
                 fuse_fields, run_child, simulate_argv)
from workloads import WORKLOADS, write_inputs


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def observe(name: str, seed: int) -> tuple[dict, object]:
    w = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=WORK))
    p = Paths(run_dir, write_inputs(w, run_dir), run_dir / "stream",
              run_dir / "grid.lgrid", run_dir / "snaps")
    try:
        outputs = []
        for argv in (simulate_argv(p, seed), fuse_argv(w, p), eval_argv(w, p)):
            child = run_child(argv, run_dir, time.perf_counter() + RUN_LIMIT_S)
            if child.exit_code != 0:
                raise SystemExit(f"{name} seed {seed}: {argv[0]} failed: {child.stderr}")
            outputs.append(child.stdout)
        return fuse_fields(outputs[1]), eval_fields(w, outputs[2])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def dump(reference: dict) -> str:
    """JSON with one line per workload's fuse stats and per seed's eval output."""
    blocks = []
    for name, ref in sorted(reference["workloads"].items()):
        seeds = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(ev, sort_keys=True)}"
                           for seed, ev in sorted(ref["eval"].items(), key=lambda kv: int(kv[0])))
        blocks.append(f'  {json.dumps(name)}: {{\n   "fuse": {json.dumps(ref["fuse"])},\n'
                      f'   "eval": {{\n{seeds}\n   }}\n  }}')
    return '{"workloads": {\n' + ",\n".join(blocks) + "\n}}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31,42", help="e.g. 0-31,42")
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append",
                        help="record only these workloads (repeatable); default all")
    args = parser.parse_args()
    reference = (json.loads(REFERENCE.read_text()) if REFERENCE.is_file()
                 else {"workloads": {}})
    for name in args.workload or list(WORKLOADS):
        fuse_ref, evals = None, {}
        for seed in parse_seeds(args.seeds):
            fuse, evals[str(seed)] = observe(name, seed)
            if fuse_ref is not None and fuse != fuse_ref:
                raise SystemExit(f"{name}: fuse stats differ between seeds: "
                                 f"{fuse} vs {fuse_ref}")
            fuse_ref = fuse
            print(f"{name} seed {seed}: {fuse} {json.dumps(evals[str(seed)])[:160]}",
                  flush=True)
        reference["workloads"][name] = {"fuse": fuse_ref, "eval": evals}
        REFERENCE.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
