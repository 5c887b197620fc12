"""The verifier builds each identity once, checks it exactly once, and
re-checks the same objects numerically."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from qexpmap import algebra_a, reporting, suites
from qexpmap.algebra_a import a_parse
from qexpmap.confluence import ConfluenceReport
from qexpmap.matrices import Matrix
from qexpmap.reporting import Identity
from qexpmap.rewrite import NCPoly, UsageError
from qexpmap.scalars import (FracScalar, HalfLaurent, NumericParams, Q_pow,
                             RadScalar, eval_points, qint)


def test_all_builds_and_checks_each_identity_once(monkeypatch):
    built = []  # keeps every identity alive, so ids stay unique
    labels = Counter()

    def recording(builder):
        def build(opts):
            for check, params, idents in builder(opts):
                idents = list(idents)
                built.extend(idents)
                labels.update((check, ident.label) for ident in idents)
                yield check, params, idents
        return build

    for name, builder in list(suites._BUILDERS.items()):
        monkeypatch.setitem(suites._BUILDERS, name, recording(builder))
    calls = Counter()
    holds_exactly = Identity.holds_exactly

    def counting(self):
        calls[id(self)] += 1
        return holds_exactly(self)

    monkeypatch.setattr(Identity, "holds_exactly", counting)
    results = suites.run_suite("all", max_j=Fraction(1, 2), max_len=2)
    assert all(r.passed for r in results)
    assert built
    assert set(labels.values()) == {1}
    assert calls == Counter(id(ident) for ident in built)
    assert set(calls.values()) == {1}


def _bogus_suite(opts):
    yield ("bogus", {}, [Identity("Q=Q", Q_pow(2), Q_pow(2)),
                         Identity("Q=Q^-1", Q_pow(2), Q_pow(-2))])


@pytest.fixture
def bogus(monkeypatch):
    monkeypatch.setattr(suites, "_BUILDERS", {"bogus": _bogus_suite})
    monkeypatch.setattr(suites, "IDENTITY_SUITES", ("bogus",))


EXACT_FAILURE = [{"identity": "Q=Q^-1", "residual": "Q - Q^-1"}]


@pytest.mark.parametrize("suite", ["bogus", "specialize", "all"])
def test_exact_failure_is_skipped_numerically(bogus, suite):
    opts = {"max_len": 2} if suite == "all" else {}
    results = {r.check: r for r in suites.run_suite(suite, **opts)}
    if suite != "specialize":
        assert not results["bogus"].passed
        assert results["bogus"].residuals == EXACT_FAILURE
    if suite != "bogus":
        # Q != Q^-1 at every sample point, so a pass means it was skipped
        numeric = results["specialize.bogus"]
        assert numeric.passed and numeric.residuals == []
        assert numeric.params == {"points": 5, "tol": 1e-10}
    expected = {"bogus": {"bogus"}, "specialize": {"specialize.bogus"},
                "all": {"bogus", "specialize.bogus",
                        "confluence(apq,max_len=2)",
                        "confluence(uq,max_len=2)"}}
    assert set(results) == expected[suite]


class _Reads(dict):
    """Options that record which keys a suite builder reads."""

    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


def test_wrong_exact_verdict_is_caught_numerically(bogus, monkeypatch):
    monkeypatch.setattr(Identity, "holds_exactly", lambda self: True)
    (numeric,) = suites.run_suite("specialize")
    first = suites.random_points(suites.SPECIALIZE_POINTS)[0]
    assert not numeric.passed
    assert numeric.residuals == [{
        "identity": "Q=Q^-1",
        "residual": f"numeric mismatch at NumericParams(p={first.p}, "
                    f"q={first.q})"}]


@pytest.mark.parametrize("lhs, residual", [
    ([[1, 0], [0, 2]], "(0,0)=1; (1,1)=2"),
    ([[1, 0, 2, 3], [0, 4, 5, 6], [7, 8, 9, 10]],
     "(0,0)=1; (0,2)=2; (0,3)=3; (1,1)=4; (1,2)=5; (1,3)=6; (2,0)=7; "
     "(2,1)=8..."),
])
def test_matrix_residual_lists_nonzero_cells(lhs, residual):
    zero = Matrix([[0] * len(lhs[0]) for _ in lhs])
    result = reporting.run_identities(
        "m", {}, [Identity("m", Matrix(lhs), zero)], [False])
    assert result.residuals == [{"identity": "m", "residual": residual}]


def test_misspelled_option_is_a_type_error():
    with pytest.raises(TypeError):
        suites.run_suite("rll", maxj=Fraction(1, 2))


@pytest.mark.parametrize("max_j, exact", [
    (0.5, Fraction(1, 2)), ("1/2", Fraction(1, 2)), (1, Fraction(1)),
    ("1", Fraction(1)), (1.0, Fraction(1))])
def test_max_j_is_read_as_a_fraction(max_j, exact):
    # the constructions accept a spin in any form Fraction reads
    want = suites.run_suite("closed-vs-factorized", max_j=exact)
    got = suites.run_suite("closed-vs-factorized", max_j=max_j)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


@pytest.mark.parametrize("max_j", ["half", "1/0", float("nan"), [1], 0.3])
def test_unreadable_max_j_is_a_usage_error(max_j):
    with pytest.raises(UsageError,
                       match="^--max-j must be a positive half-integer$"):
        suites.run_suite("rll", max_j=max_j)


def test_max_j_suites_are_those_that_read_it():
    # every builder reads its options before it builds its first check
    readers = set()
    for name, builder in suites._BUILDERS.items():
        seen = set()
        next(iter(builder(_Reads(seen))))
        assert "max_len" not in seen, name
        if "max_j" in seen:
            readers.add(name)
    assert set(suites.MAX_J_SUITES) == readers | {"all", "specialize"}


COUNTEREXAMPLE = {"word": [["d", "1"], ["a", "1"]],
                  "forms": ["a*d", "a*d + 1"]}


def test_confluence_residuals_are_the_counterexamples(monkeypatch):
    def failing(pres, max_len):
        return ConfluenceReport(pres.name, max_len, words_checked=1,
                                counterexamples=[COUNTEREXAMPLE])

    monkeypatch.setattr(suites, "confluence_check", failing)
    results = suites.run_suite("confluence", max_len=2)
    assert [r.check for r in results] == ["confluence(apq,max_len=2)",
                                          "confluence(uq,max_len=2)"]
    for r in results:
        assert not r.passed
        assert r.residuals == [COUNTEREXAMPLE]
        assert r.to_json()["residuals"] == [COUNTEREXAMPLE]


def test_verdicts_follow_the_residuals():
    assert reporting.CheckResult("x", {}).passed
    assert not reporting.CheckResult("x", {}, [COUNTEREXAMPLE]).passed
    report = ConfluenceReport("apq", 2)
    assert report.confluent
    report.counterexamples.append(COUNTEREXAMPLE)
    assert not report.confluent and not report.to_json()["confluent"]


def test_reports_default_to_fresh_lists():
    first, second = (reporting.CheckResult(c, {}) for c in "xy")
    first.residuals.append(1)
    first.notes.append(1)
    assert second.residuals == [] and second.notes == []
    apq, uq = (ConfluenceReport(name, 2) for name in ("apq", "uq"))
    apq.counterexamples.append(COUNTEREXAMPLE)
    assert uq.counterexamples == [] and uq.words_checked == 0 and uq.confluent
    assert Identity("x", 1, 1).note == ""


def _reference_value(x, point):
    """x at one point, term by term in stored order, as the numeric check
    is specified."""
    if isinstance(x, (int, Fraction)):
        return float(x)
    if isinstance(x, HalfLaurent):
        total = 0.0
        for (u, v), c in x.terms.items():
            total += float(c) * point.Q ** (u / 2) * point.lam ** (v / 2)
        return total
    if isinstance(x, FracScalar):
        return _reference_value(x.num, point) / _reference_value(x.den, point)
    total = 0.0
    for c, rad in x.terms:
        val = _reference_value(c, point)
        for n in rad:
            val *= math.sqrt(_reference_value(qint(n), point))
        total += val
    return total


def test_eval_points_matches_a_per_point_reference():
    points = suites.random_points(5)
    coeffs = []
    for suite in suites.IDENTITY_SUITES:
        for _, _, idents in suites._BUILDERS[suite]({}):
            for ident in idents:
                for side in (ident.lhs, ident.rhs):
                    entries = ([x for row in side.rows for x in row]
                               if isinstance(side, Matrix) else [side])
                    for x in entries:
                        coeffs.extend(x.terms.values()
                                      if isinstance(x, NCPoly) else [x])
    assert {type(c) for c in coeffs} >= {int, HalfLaurent, FracScalar,
                                         RadScalar}
    for c in coeffs:
        assert eval_points(c, points) == [_reference_value(c, pt)
                                          for pt in points]


class TestNumericClose:
    # Q^40 is about 8e15 at Q = 2.5, so 1 is below 1e-10 of the scale;
    # at Q = 1.2 it is about 1470, and 1 is not
    POINTS = [NumericParams(2.5, 2.5), NumericParams(1.2, 1.2)]

    def test_one_word_coefficient(self):
        # q*a*b is the word a*b with the coefficient q, 0.6 at this point
        point = NumericParams(1.4, 0.6)
        x = a_parse("q*a*b")
        same = a_parse("a*b") * Fraction(3, 5)
        bumped = a_parse("a*b") * (Fraction(3, 5) + Fraction(1, 10 ** 6))
        assert Identity("x", x, same).numeric_close([point], 1e-10) is None
        assert Identity("x", x, bumped).numeric_close([point], 1e-10) \
            is point

    def test_reports_first_mismatching_point(self):
        ident = Identity("x", Q_pow(80), Q_pow(80) + 1)
        assert ident.numeric_close(self.POINTS, 1e-10) is self.POINTS[1]
        assert ident.numeric_close(self.POINTS[:1], 1e-10) is None

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_word_on_one_side_alone(self, side):
        # the matrices differ only in the word c of entry (0, 1)
        m = [[a_parse("a + q*b"), a_parse("b")], [a_parse("c"), a_parse("d")]]
        other = [row[:] for row in m]
        other[0][1] = a_parse("b + c")
        lhs, rhs = Matrix(other), Matrix(m)
        if side == "rhs":
            lhs, rhs = rhs, lhs
        points = suites.random_points(5)
        assert Identity("x", lhs, rhs).numeric_close(points, 1e-10) \
            is points[0]

    def test_exact_identity_is_close_everywhere(self):
        points = suites.random_points(5)
        for ident in algebra_a.qdet_identities():
            assert ident.holds_exactly()
            assert ident.numeric_close(points, 1e-10) is None

    def test_each_coefficient_evaluated_once_per_point(self, monkeypatch):
        # the only mismatch is in the last entry, at the second point; each
        # of the ten coefficients is evaluated once, at all three points
        m = [[a_parse("a + q*b"), a_parse("b")],
             [a_parse("c"), a_parse("d") * Q_pow(80)]]
        other = [m[0], [m[1][0], a_parse("d") * (Q_pow(80) + 1)]]
        points = self.POINTS + suites.random_points(1)
        calls = []

        def counting(x, pts):
            calls.append(pts)
            return eval_points(x, pts)

        monkeypatch.setattr(reporting, "eval_points", counting)
        ident = Identity("x", Matrix(m), Matrix(other))
        assert ident.numeric_close(points, 1e-10) is points[1]
        assert calls == [points] * 10
