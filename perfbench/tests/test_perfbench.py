"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import repcheck  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import words  # noqa: E402


# -- percentiles and their sample counts

def test_percentile_interpolates_like_statistics_inclusive():
    xs = [7, 1, 3, 9, 5, 2, 8, 4, 6, 10]
    for q in (10, 25, 50, 75, 90):
        want = statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
        assert stats.percentile(xs, q) == pytest.approx(want)
    assert stats.percentile(xs, 0) == 1 and stats.percentile(xs, 100) == 10


def test_samples_beyond_counts_what_lies_above_the_rank():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(10, 90) == 1
    assert stats.samples_beyond(1, 50) == 0
    xs = list(range(200))
    p90 = stats.percentile(xs, 90)
    assert sum(x > p90 for x in xs) == stats.samples_beyond(200, 90)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


# -- self time from nested spans

def test_self_time_subtracts_direct_children_only():
    #   0 root   [0, 10]
    #   1  child [1, 4]      parent 0
    #   2   leaf [2, 3]      parent 1
    #   3  child [5, 6]      parent 0
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    assert tracer.span_self_times(parents, starts, ends) == [6.0, 2.0, 1.0, 1.0]
    assert sum(tracer.span_self_times(parents, starts, ends)) == 10.0


def test_tracer_layers_sum_to_root_spans_and_counts_repeat(tmp_path):
    from qexpmap import algebra_a, algebra_u, expmap
    from qexpmap.rewrite import NCPoly

    def work():
        algebra_u.u_parse("e*e*f*k^1/2*f")
        expmap.t_matrix_closed(1, 1, "rational")

    def traced():
        t = tracer.Tracer()
        t.install()
        try:
            work()
        finally:
            t.uninstall()
        return t

    work()  # fill the program's lazy caches, as the benchmark's set-up does
    first, second = traced(), traced()
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.extra) == dict(second.extra)
    assert first.calls["rewrite:normal_order_terms"] > 0
    roots = sum(e - s for p, s, e in zip(first.parents, first.starts,
                                          first.ends) if p == -1)
    assert sum(first.self_times().values()) == pytest.approx(roots)
    assert "expmap:t_closed_2j2" in first.inclusive_times()
    # every original is back in place
    assert not hasattr(algebra_a.a_parse, "__wrapped__")
    assert not hasattr(algebra_u.gamma_rep, "__wrapped__")
    assert not hasattr(NCPoly.__mul__, "__wrapped__")

    path = tmp_path / "x.spans"
    first.write_spans(path)
    header, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(header)
    assert header["count"] == len(first.names)
    assert len(body) == header["count"] * (4 + 4 + 8 + 8)


# -- the expression stream

def test_same_seed_gives_same_stream_and_other_seeds_differ():
    assert words.stream(7) == words.stream(7)
    assert words.stream(7) != words.stream(8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stream_respects_cap_lengths_and_quotas(seed):
    items = words.stream(seed)
    assert len(items) >= 200
    for it in items:
        letters = it["expr"].split("*")
        assert words.MIN_LEN <= len(letters) <= words.MAX_LEN
        counts = {}
        for x in letters:
            gen = words.CAPPED[it["alg"]].get(x)
            if gen:
                counts[gen] = counts.get(gen, 0) + 1
        assert max(counts.values(), default=0) <= words.DEGREE_CAP
        assert it["degree"] == max(counts.values(), default=0)
    for alg in ("A", "U"):
        got = {}
        for it in items:
            if it["alg"] == alg:
                got[it["inversions"]] = got.get(it["inversions"], 0) + 1
        assert got == words.quotas(alg)


def test_ladder_pairs_degree_three_and_four_words_under_the_cap():
    ladder = words.ladder()
    assert [(it["alg"], it["degree"]) for it in ladder] == \
        [("U", 3), ("U", 4), ("A", 3), ("A", 4)]
    for it in ladder:
        letters = it["expr"].split("*")
        assert len(letters) <= words.MAX_LEN
        assert words.degree(it["alg"], letters) == it["degree"]


def test_inversions_and_degree():
    assert words.inversions("U", ("e", "f", "e", "f")) == 3
    assert words.inversions("A", ("d", "a^-1", "b", "a")) == 2
    assert words.degree("A", ("a", "a^-1", "d")) == 2


# -- the representation check

def test_repcheck_accepts_normal_forms_and_rejects_wrong_ones():
    from qexpmap.algebra_a import a_parse
    from qexpmap.algebra_u import u_parse
    checks = repcheck.checkers(words.LETTERS)
    assert all(c.holds(["e", "f", "k^1/2"], u_parse("e*f*k^1/2"))
               for c in checks["U"])
    assert not all(c.holds(["e", "f"], u_parse("f*e")) for c in checks["U"])
    assert all(c.holds(["b", "a^-1", "D^1/2"], a_parse("b*a^-1*D^1/2"))
               for c in checks["A"])
    assert not all(c.holds(["b", "a"], a_parse("a*b")) for c in checks["A"])


def test_repcheck_sees_words_that_hold_both_b_and_c():
    from qexpmap.algebra_a import a_parse
    checks = repcheck.checkers(words.LETTERS)["A"]
    pi_only = [c for c in checks if "coproduct" not in c.label]
    raw = ["b", "c", "a"]
    assert all(c.holds(raw, a_parse("b*c*a")) for c in checks)
    for wrong in ("2*b*c*a", "b*c*a + b*c"):
        # pi(+) kills c and pi(-) kills b: both sides are 0 there
        assert all(c.holds(raw, a_parse(wrong)) for c in pi_only)
        assert not all(c.holds(raw, a_parse(wrong)) for c in checks)
    # the b*c correction of d*a, and a^-1 through the inverse of a's matrix
    assert not all(c.holds(["d", "a"], a_parse("a*d")) for c in checks)
    assert all(c.holds(["a^-1", "d", "a"], a_parse("a^-1*d*a")) for c in checks)


# -- size growth

def test_kind_growth_compares_matching_kinds_one_step_down():
    items = [{"kind": "x", "size": 3, "t": 2.0}, {"kind": "x", "size": 2, "t": 1.0},
             {"kind": "y", "size": 3, "t": 6.0}, {"kind": "y", "size": 2, "t": 1.0},
             {"kind": "z", "size": 2, "t": 100.0}]
    assert stats.kind_growth(items) == 4.0


def test_check_growth_pairs_each_family_top_spin_with_the_next():
    items = [{"label": "rll(j=1/2)", "t": 1.0}, {"label": "rll(j=1)", "t": 3.0},
             {"label": "cvf(j=1,z=1,rational)", "t": 2.0},
             {"label": "cvf(j=1,z=0,rational)", "t": 2.0},
             {"label": "cvf(j=1/2,z=1/2,rational)", "t": 1.0},
             {"label": "qdet", "t": 50.0}]
    assert stats.check_growth(items) == (3.0 + 4.0) / (1.0 + 1.0)


# -- machine speed

def test_times_scale_to_the_reference_speed():
    assert run.speed({"ref_s": [2 * run.REF_S, 2 * run.REF_S]}) == 0.5
    assert run.speed({"ref_s": [run.REF_S / 2]}) == 2.0


def test_reference_runs_are_spaced_and_off_when_traced():
    on, off = child.Speed(on=True), child.Speed(on=False)
    on.start()
    for _ in range(50):
        on.between()
        off.between()
    # start's run is before the first item, so it is not in spent
    assert len(on.times) == 1 and on.spent == 0
    time.sleep(child.REF_EVERY_S)
    on.between()
    off.between()
    assert len(on.times) == 2 and on.spent > 0
    assert off.times == [] and off.spent == 0


def test_check_items_leave_out_the_reference_between_checks():
    marks = [("a", 1.0, 1.5), ("b", 2.0, 2.0), ("c", 4.0, 4.25)]
    assert [it["t"] for it in child.check_items(marks, 0.0)] == [1.0, 0.5, 2.0]


# -- the declaration matches run.py

def test_benchmark_json_matches_run_py():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == run.per_layer_spec()
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
