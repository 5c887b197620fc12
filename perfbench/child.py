"""One pass of one workload, in a fresh interpreter started by run.py.

Reads a job (JSON) from standard input and prints one JSON result line.
The job names the workload and says whether to trace the pass; for
normal_order_stream it also holds the expressions and says whether to run
the representation check.  Program modules are reached through module
attributes at call time, so the tracer's wrappers see every call.

Between items, an untraced pass runs a fixed piece of pure-Python work, the
reference, at most every REF_EVERY_S, and reports its times (ref_s), so
that run.py can tell how fast the machine was during the pass.  Item times
and wall_s leave the reference out.  A traced pass runs it just before and
after the pass.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
clock = time.perf_counter
REF_EVERY_S = 0.05

SPIN_PLAN = ([(kind, tj) for tj in range(1, 6)
              for kind in ("t_closed", "t_factorized", "l_plus", "l_minus")]
             + [("r_matrix", tj) for tj in range(1, 5)]
             + [(kind, tj) for tj in range(1, 4)
                for kind in ("rll", "comodule")])


def setup() -> float:
    """Seconds to import qexpmap and build both presentations and their
    tensor squares: the cold start every CLI call pays."""
    t0 = clock()
    import qexpmap
    import qexpmap.cli
    qexpmap.rewrite.tensor_square(qexpmap.algebra_a.apq_presentation())
    qexpmap.rewrite.tensor_square(qexpmap.algebra_u.u_presentation())
    return clock() - t0


def reference() -> float:
    """Seconds for a fixed piece of pure-Python work like the program's
    own (Fraction arithmetic and dict stores), with the garbage collector
    off so that none of the program's heap is scanned inside it."""
    enabled = gc.isenabled()
    gc.disable()
    t = clock()
    x, d = Fraction(0), {}
    for i in range(1, 600):
        x += Fraction(1, i % 97 + 1)
        d[i % 100, "a"] = x
    took = clock() - t
    if enabled:
        gc.enable()
    return took


class Speed:
    """Runs the reference between items, at most every REF_EVERY_S; off
    in traced passes, where its time would land in a layer's span."""

    def __init__(self, on: bool):
        self.on = on
        self.times = []
        self.spent = 0.0
        self.last = None

    def start(self) -> float:
        """Call before the first item; returns the clock at which it
        starts.  spent counts the reference time from here on."""
        t = self.between()
        self.spent = 0.0
        return t

    def between(self) -> float:
        """Call between items; returns the clock at which the next item
        starts."""
        now = clock()
        if self.on and (self.last is None or now - self.last >= REF_EVERY_S):
            self.times.append(reference())
            self.last = clock()
            self.spent += self.last - now
            return self.last
        return now


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# verify_all


class CheckMarks:
    """Timestamps at item boundaries inside one CLI call, taken from
    outside: one each time a check finishes (a CheckResult is built),
    and one when the next check starts, after any reference run."""

    def __init__(self, speed: Speed):
        self.speed = speed

    def __enter__(self):
        from qexpmap import reporting
        marks = self.marks = []
        init = self._init = reporting.CheckResult.__init__
        between = self.speed.between

        def timed_init(obj, check, *args, **kwargs):
            init(obj, check, *args, **kwargs)
            done = clock()
            marks.append((check, done, between()))

        reporting.CheckResult.__init__ = timed_init
        return self

    def __exit__(self, *exc):
        from qexpmap import reporting
        reporting.CheckResult.__init__ = self._init


def check_items(marks, start: float) -> list[dict]:
    """verify_all items: one per finished check, timed from the previous
    check's end (the first from the start of the call)."""
    items, prev = [], start
    for label, done, resume in marks:
        items.append({"label": label, "t": done - prev})
        prev = resume
    return items


def run_verify(job: dict, speed: Speed):
    from qexpmap import cli
    out = Path(job["out_dir"]) / "verify_all.json"
    with CheckMarks(speed) as probe:
        t0 = speed.start()
        code = cli.main(["verify", "--suite", "all", "--out", str(out)])
        wall = clock() - t0 - speed.spent
    rss = peak_rss_mb()
    data = out.read_bytes() if out.exists() else b""
    items = check_items(probe.marks, t0)
    result = {"wall_s": wall, "items": items, "peak_rss_mb": rss,
              "report_bytes": len(data)}
    return result, lambda: verify_failures(code, data, len(items))


def verify_failures(code, data, n_items) -> list[str]:
    """Failed items of a verify_all pass: the report must pass and match
    the reference byte for byte."""
    ref = (REFS / "verify_all.json").read_bytes()
    if code != 0 or not data:
        return [f"exit code {code}"] * max(n_items, 1)
    report = json.loads(data)
    if data == ref and report["pass"]:
        return []
    want = {c["check"]: c for c in json.loads(ref)["checks"]}
    bad = [c["check"] for c in report["checks"]
           if want.get(c["check"]) != c or not c["pass"]]
    return bad or ["report differs from the reference"]


# ---------------------------------------------------------------------------
# spin_sweep


def run_spin(job: dict, speed: Speed):
    from qexpmap import expmap
    items, outputs, failed = [], {}, []
    closed = {}
    t0 = speed.start()
    for kind, tj in SPIN_PLAN:
        j = Fraction(tj, 2)
        label = f"{kind}@2j={tj}"
        t = speed.between()
        out, ok, why = None, True, "does not hold"
        try:
            if kind == "t_closed":
                out = closed[tj] = expmap.t_matrix_closed(j, j, "rational")
            elif kind == "t_factorized":
                out = expmap.t_matrix_factorized(j, j, "rational")
                ok = out == closed[tj]
            elif kind in ("l_plus", "l_minus"):
                out = expmap.l_matrix("+" if kind == "l_plus" else "-", j)
            elif kind == "r_matrix":
                out = expmap.r_matrix_rep(j, 0, j, 0)
            elif kind == "rll":
                ok = all(i.holds_exactly() for i in expmap.rll_identities(j))
            else:
                ok = all(i.holds_exactly()
                         for i in expmap.comodule_identities(j, j))
        except Exception as exc:  # a raising item is a failed item
            ok, why = False, f"{type(exc).__name__}: {exc}"
        items.append({"label": label, "kind": kind, "size": tj,
                      "t": clock() - t})
        if not ok:
            failed.append(f"{label}: {why}")
        if out is not None:
            outputs[label] = out
    wall = clock() - t0 - speed.spent
    rss = peak_rss_mb()
    result = {"wall_s": wall, "items": items, "peak_rss_mb": rss}

    def verify():
        from qexpmap import render
        result["digests"] = digests = {
            label: digest(render.render_matrix(m, "json").encode())
            for label, m in outputs.items()}
        ref = json.loads((REFS / "spin_sweep.json").read_text())
        return failed + [f"{label}: matrix_json differs from the reference"
                         for label in ref if digests.get(label) != ref[label]]
    return result, verify


# ---------------------------------------------------------------------------
# normal_order_stream


def run_stream(job: dict, speed: Speed):
    """The normal-order path of the CLI for each expression, then for the
    degree ladder, whose items give size_growth and are not part of the
    pass's other metrics.  Normal forms are not kept, so the live heap, and
    with it the cost of garbage collection, does not grow along the stream;
    the check parses again."""
    import words
    from qexpmap import algebra_a, algebra_u, render

    def parse(alg, expr):
        return (algebra_a.a_parse if alg == "A" else algebra_u.u_parse)(expr)

    stream = job["items"]
    ladder = words.ladder()
    texts, failed = [], []

    def run(batch):
        out = []
        for it in batch:
            t = speed.between()
            try:
                text = render.render_poly(parse(it["alg"], it["expr"]), "text")
            except Exception as exc:  # a raising item is a failed item
                text = f"{type(exc).__name__}: {exc}"
                failed.append(f"{it['expr']}: {text}")
            out.append({"label": it["expr"], "kind": it["alg"],
                        "size": it["degree"], "t": clock() - t})
            texts.append(text)
        return out

    t0 = speed.start()
    items = run(stream)
    wall = clock() - t0 - speed.spent
    rss = peak_rss_mb()
    # the ladder starts from a collected heap, so that where a collection
    # falls in its short degree-3 words does not depend on the stream
    gc.collect()
    result = {"wall_s": wall, "items": items,
              "ladder": run(ladder), "peak_rss_mb": rss,
              "output_digest": digest("\n".join(texts).encode())}

    def verify():
        """Every output must render the normal form that represents like
        the raw product (see repcheck); done on the first pass only, as the
        other passes must print the same bytes."""
        import repcheck
        if not job["represent"]:
            return failed
        checkers = repcheck.checkers(words.LETTERS)
        bad = []
        for it, text in zip(stream + ladder, texts):
            try:
                nf = parse(it["alg"], it["expr"])
            except Exception:  # already counted in failed
                continue
            if render.render_poly(nf, "text") != text or not all(
                    c.holds(it["expr"].split("*"), nf)
                    for c in checkers[it["alg"]]):
                bad.append(f"{it['expr']}: representation differs")
        return failed + bad
    return result, verify


# ---------------------------------------------------------------------------


RUNNERS = {"verify_all": run_verify, "spin_sweep": run_spin,
           "normal_order_stream": run_stream}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    job = json.loads(sys.stdin.read())
    result = {"setup_s": setup()}
    import qexpmap
    src = Path(job["root"]) / "src"
    if Path(qexpmap.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"qexpmap imported from {qexpmap.__file__}, not {src}")
    if job.get("setup_only"):
        result["ref_s"] = [reference() for _ in range(3)]
        print(json.dumps(result))
        return
    # a traced pass runs the reference only before and after the pass,
    # outside every span
    speed = Speed(on=not job["trace"])
    bracket = []
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        bracket.append(reference())
        tracer = Tracer()
        tracer.install()
    try:
        measured, verify = RUNNERS[job["workload"]](job, speed)
    finally:
        if tracer is not None:
            tracer.uninstall()
            bracket.append(reference())
    failed = verify()
    result.update(measured, failed=failed, ref_s=speed.times or bracket)
    if tracer is not None:
        tracer.write_spans(Path(job["out_dir"]) / f"{job['workload']}.spans")
        result["trace"] = {"calls": dict(tracer.calls),
                           "extra": dict(tracer.extra),
                           "self_s": tracer.self_times(),
                           "incl_s": tracer.inclusive_times(),
                           "spans": len(tracer.names)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
