"""Benchmark runner for qexpmap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is used from its src/
directory as it stands, with no build step.  Every pass runs in a fresh
child interpreter (child.py), one at a time, with a pinned environment:
PYTHONHASHSEED=0 because the confluence explorer iterates over sets,
QEXPMAP_GUARD unset so the default guard of 10^6 terms applies, and
bytecode cached under .bench_build/ rather than written into src/.

With --trace 0 run.py runs untraced passes for --seconds and reports the
end-to-end metrics: each time is the median over the run's passes, and
set-up is measured in SETUP_SAMPLES children that only set up, spread over
the run.  With --trace 1 it runs untraced passes for the first third of
--seconds and traced passes (at least one) for the rest, and reports the
per-layer metrics, checking that every count repeats exactly across the
traced passes.  Both print one line per metric, with unit and sample
count, and end with one JSON line.  A pass whose output is wrong, that
raises or that trips the guard counts its items as failed; it is never
retried.

Times are reported at the machine's reference speed.  On a shared virtual
machine the speed of the CPU drifts by up to 2x over minutes, so raw times
of the same code spread by 20-35 % between runs.  Each untraced child
therefore also times a fixed piece of pure-Python work (child.reference)
between items, and run.py scales the child's times by REF_S over that
reference's mean time in the child.  Over 55 passes of one stream, with
the reference run every 50 words, this cut the passes' coefficient of
variation from 0.23 to 0.034 (the reference's time and the pass time
correlated at 0.99).  The reference
runs no code of the program, so only the program's own time moves a
scaled metric.  The raw time and the machine's speed are printed too.
Per-layer times and trace_overhead are scaled the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import check_growth, kind_growth, percentile, samples_beyond
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("verify_all", "spin_sweep", "normal_order_stream")
MIN_PASSES = 3
MIN_TRACED = 1
SETUP_SAMPLES = 40
# seconds child.reference() takes on the undisturbed 2-vCPU Xeon VM the
# baseline was recorded on; scaled times are times at that speed
REF_S = 0.0018
RUN_LIMIT_S = 170           # every run must end within 180 s
SUITES = ("closed-vs-factorized", "comodule", "confluence", "delta-l",
          "lie-coords", "pi-homomorphism", "pi-t-vs-r", "qdet",
          "quasitriangular", "relations", "rep-relations", "rll",
          "specialize", "tprime-r")

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("size_growth", "ratio", "lower"),
)

# per-layer metric -> traced call counters that add up to it
CALLS = {
    "scalars.halflaurent_mul_calls": ("scalars:HalfLaurent.__mul__",),
    "scalars.fracscalar_new_calls": ("scalars:FracScalar.__init__",),
    "scalars.fracscalar_eq_calls": ("scalars:FracScalar.__eq__",),
    "scalars.divexact_calls": ("scalars:HalfLaurent.divexact",),
    "scalars.radscalar_new_calls": ("scalars:RadScalar.__init__",),
    "rewrite.normal_order_calls": ("rewrite:normal_order_terms",),
    "rewrite.ncpoly_new_calls": ("rewrite:NCPoly.__init__",),
    "rewrite.ncpoly_mul_calls": ("rewrite:NCPoly.__mul__",),
    "parser.parse_calls": ("parser:parse",),
    "matrices.mul_calls": ("matrices:Matrix.__mul__",
                           "matrices:Matrix.__rmul__"),
    "matrices.kron_calls": ("matrices:Matrix.kron",),
    "expmap.qexp_calls": ("expmap:qexp",),
    "reporting.holds_exactly_calls": ("reporting:Identity.holds_exactly",),
    "suites.identities_built": ("reporting:Identity.__init__",),
}
# per-layer metric -> probe counter
EXTRA = {
    "rewrite.raw_terms_in": "raw_terms_in",
    "rewrite.normal_terms_out": "normal_terms_out",
    "render.bytes_out": "render_bytes",
    "matrices.entry_mults": "entry_mults",
    "expmap.output_terms": "output_terms",
    "confluence.words_checked": "words_checked",
}
# per-layer metric -> span name whose summed duration it is
INCLUSIVE = {
    "matrices.inverse_s": "matrices:inverse",
    "algebra_a.coproduct_s": "algebra_a:coproduct",
    "algebra_u.u_coproduct_s": "algebra_u:u_coproduct",
    "algebra_u.pi_apply_s": "algebra_u:pi_apply",
    "algebra_u.rep_apply_s": "algebra_u:rep_apply",
    "reporting.holds_exactly_s": "reporting:holds_exactly",
    "reporting.numeric_close_s": "reporting:numeric_close",
    "confluence.check_s": "confluence:check",
}
for _kind, _top in (("t_closed", 5), ("t_factorized", 5), ("l_matrix", 5),
                    ("r_matrix", 4), ("rll", 3), ("comodule", 3)):
    for _n in range(1, _top + 1):
        INCLUSIVE[f"expmap.{_kind}_2j{_n}_s"] = f"expmap:{_kind}_2j{_n}"
for _suite in SUITES:
    INCLUSIVE[f"suites.{_suite}_s"] = f"suites:suite={_suite}"
SELF = {f"{layer}.self_s": layer for layer in LAYERS}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [(name, "s", "lower") for name in SELF]
    rows += [(name, "count", "lower") for name in CALLS]
    rows += [(name, "bytes" if "bytes" in name else "count",
              "higher" if name == "confluence.words_checked" else "lower")
             for name in EXTRA]
    rows += [(name, "s", "lower") for name in INCLUSIVE]
    rows += [("scalars.divexact_hit_ratio", "ratio", "higher"),
             ("cli.report_bytes", "bytes", "lower"),
             ("trace_overhead", "ratio", "lower")]
    return rows


class PassError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("QEXPMAP_GUARD", "PYTHONDONTWRITEBYTECODE",
                        "PYTHONOPTIMIZE", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    return env


def run_child(job: dict, deadline: float) -> dict:
    """One pass in a fresh interpreter; its last output line is the result."""
    job = dict(job, root=str(ROOT), out_dir=str(BUILD / "out"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassError("pass did not end within the run's limit") from exc
    if proc.returncode != 0:
        raise PassError(proc.stderr.strip().splitlines()[-1:] or
                        f"exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """The passes of one run and the failures they found."""

    def __init__(self, workload: str, seed: int, setups: bool):
        self.workload = workload
        self.sample_setups = setups
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.job = {"workload": workload, "trace": False, "represent": False}
        if workload == "normal_order_stream":
            import words
            self.job["items"] = words.stream(seed)
        self.passes, self.traced, self.setups = [], [], []
        self.attempted = self.failed = 0
        self.errors = []

    def one(self, trace: bool = False):
        first = not self.passes and not self.traced
        job = dict(self.job, trace=trace, represent=first)
        try:
            r = run_child(job, self.deadline)
        except PassError as exc:
            self.errors.append(f"{self.workload}: {exc}")
            n = len(self.passes[0]["items"]) if self.passes else 1
            self.attempted += n
            self.failed += n
            return None
        n = len(r["items"])
        bad = len(r["failed"])
        ref = (self.passes or self.traced or [r])[0].get("output_digest")
        if r.get("output_digest") != ref:
            bad = n
            self.errors.append(f"{self.workload}: output differs between passes")
        self.attempted += n
        self.failed += min(bad, n)
        self.errors += r["failed"][:5]
        (self.traced if trace else self.passes).append(r)
        return r

    def until(self, seconds: float, trace: bool, at_least: int):
        """Passes until another one like the last would end after
        `seconds`, but at least `at_least` of them.  Between untraced
        passes, set-up samples keep pace with the time spent."""
        start = time.monotonic()
        done = 0
        while True:
            begun = time.monotonic()
            if self.one(trace) is None and not (self.passes or self.traced):
                raise PassError("; ".join(self.errors[-1:]))
            took = time.monotonic() - begun
            done += 1
            if self.sample_setups:
                self.setups_upto(SETUP_SAMPLES * min(
                    1.0, (time.monotonic() - start) / seconds))
            if done >= at_least and time.monotonic() - start + took > seconds:
                return

    def setups_upto(self, n: float = SETUP_SAMPLES):
        """Children that only set up, until there are n samples."""
        while len(self.setups) < int(n):
            r = run_child(dict(self.job, setup_only=True, items=None),
                          self.deadline)
            self.setups.append(r["setup_s"] * speed(r))


def speed(r: dict) -> float:
    """How fast the machine ran during a child, relative to REF_S: the
    factor that scales the child's times to the reference speed."""
    return REF_S / statistics.mean(r["ref_s"])


def end_to_end(run: Run) -> dict:
    passes = run.passes
    scale = [speed(p) for p in passes]

    def item_times(key):
        """Per item, its median scaled time over the passes."""
        return [dict(it, t=statistics.median(
                    p[key][i]["t"] * k for p, k in zip(passes, scale)))
                for i, it in enumerate(passes[0][key])]

    wall = statistics.median(p["wall_s"] * k for p, k in zip(passes, scale))
    items = item_times("items")
    lat = [it["t"] * 1e3 for it in items]
    if run.workload == "verify_all":
        growth = check_growth(items)
    elif run.workload == "spin_sweep":
        growth = kind_growth(items)
    else:
        growth = kind_growth(item_times("ladder"))
    n = len(passes)
    return {
        "setup_s": (statistics.median(run.setups), len(run.setups)),
        "wall_s": (wall, n),
        "items_per_s": (len(items) / wall, n),
        "item_p50_ms": (percentile(lat, 50), len(lat)),
        "item_p90_ms": (percentile(lat, 90), len(lat)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        n),
        "size_growth": (growth, n),
        # printed for the reader, not metrics of the benchmark
        "raw_wall_s": (statistics.median(p["wall_s"] for p in passes), n),
        "machine_speed": (statistics.median(scale), n),
    }


def layer_values(r: dict) -> dict:
    """Per-layer metrics of one traced pass; counts first, then times."""
    tr = r["trace"]
    calls, extra, incl = tr["calls"], tr["extra"], tr["incl_s"]
    counts = {name: sum(calls.get(k, 0) for k in keys)
              for name, keys in CALLS.items()}
    counts.update({name: extra.get(k, 0) for name, k in EXTRA.items()})
    counts["scalars.divexact_hit_ratio"] = (
        extra.get("divexact_hits", 0) / counts["scalars.divexact_calls"]
        if counts["scalars.divexact_calls"] else 0.0)
    counts["cli.report_bytes"] = r.get("report_bytes", 0)
    times = {name: tr["self_s"].get(layer, 0.0) for name, layer in SELF.items()}
    times.update({name: incl.get(span, 0.0) for name, span in INCLUSIVE.items()})
    return {"counts": counts, "times": times}


def per_layer(run: Run) -> dict:
    values = [layer_values(r) for r in run.traced]
    counts = values[0]["counts"]
    for other in values[1:]:
        diff = [k for k in counts if other["counts"][k] != counts[k]]
        if diff:
            run.errors.append(f"counts differ between traced passes: {diff}")
            run.failed = max(run.failed, 1)
    n = len(values)
    out = {name: (v, n) for name, v in counts.items()}
    scale = [speed(r) for r in run.traced]
    for name in values[0]["times"]:
        out[name] = (statistics.median(v["times"][name] * k
                                       for v, k in zip(values, scale)), n)
    traced = statistics.median(r["wall_s"] * k
                               for r, k in zip(run.traced, scale))
    untraced = statistics.median(r["wall_s"] * speed(r) for r in run.passes)
    out["trace_overhead"] = (traced / untraced, n)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qexpmap" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'qexpmap'} "
              f"is missing", file=sys.stderr)
        return 2
    (BUILD / "out").mkdir(parents=True, exist_ok=True)

    run = Run(args.workload, args.seed, setups=not args.trace)
    try:
        if args.trace:
            run.until(args.seconds / 3, trace=False, at_least=1)
            run.until(args.seconds * 2 / 3, trace=True, at_least=MIN_TRACED)
            values = per_layer(run)
            spec, info = per_layer_spec(), ()
        else:
            run.until(args.seconds, trace=False, at_least=MIN_PASSES)
            run.setups_upto()
            values = end_to_end(run)
            spec = END_TO_END
            info = (("raw_wall_s", "s"), ("machine_speed", "ratio"))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for msg in run.errors[:20]:
        print(f"FAILED {msg}")
    metrics = {}
    rows = [(name, unit) for name, unit, _better in spec] + list(info)
    for name, unit in rows:
        value, n = values[name]
        if name not in dict(info):
            metrics[name] = {"value": value, "unit": unit}
        note = f" beyond_p90={samples_beyond(n, 90)}" \
            if name == "item_p90_ms" else ""
        print(f"{args.workload:20s} {name:34s} {value:14.6g} {unit:6s} "
              f"n={n}{note}")
    print(f"{args.workload:20s} {'fail_ratio':34s} "
          f"{run.failed / run.attempted:14.6g} {'ratio':6s} "
          f"n={run.attempted}")
    print(json.dumps({"correct": run.failed == 0 and not run.errors,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
