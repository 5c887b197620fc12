"""Record the reference outputs the benchmark's correctness gates compare
against, from the program as it stands:

    python3 perfbench/record_refs.py

refs/verify_all.json is the report of `verify --suite all`, byte for byte;
refs/spin_sweep.json maps each spin_sweep matrix to the SHA-256 of
render.render_matrix(m, "json").  Record
them only at a commit whose outputs are known to be right: the gates exist
to show that later commits compute the same thing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from run import BUILD, HERE, ROOT, child_env, run_child

REFS = HERE / "refs"


def main() -> int:
    REFS.mkdir(exist_ok=True)
    (BUILD / "out").mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "qexpmap.cli", "verify", "--suite",
                    "all", "--out", str(REFS / "verify_all.json")],
                   cwd=ROOT, env=child_env(), check=True)
    spin = REFS / "spin_sweep.json"
    spin.write_text("{}\n")   # no reference yet: compare nothing
    result = run_child({"workload": "spin_sweep", "trace": False},
                       time.monotonic() + 600)
    if result["failed"]:
        print("\n".join(result["failed"]), file=sys.stderr)
        return 1
    spin.write_text(json.dumps(result["digests"], indent=1, sort_keys=True)
                    + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
