"""The verifier builds each identity once, checks it exactly once, and
re-checks the same objects numerically."""

from collections import Counter
from fractions import Fraction

import pytest

from qexpmap import suites
from qexpmap.confluence import ConfluenceReport
from qexpmap.reporting import Identity
from qexpmap.scalars import Q_pow


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
    results = {r.check: r for r in suites.run_suite(suite, max_len=2)}
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
                                confluent=False,
                                counterexamples=[COUNTEREXAMPLE])

    monkeypatch.setattr(suites, "confluence_check", failing)
    results = suites.run_suite("confluence", max_len=2)
    assert [r.check for r in results] == ["confluence(apq,max_len=2)",
                                          "confluence(uq,max_len=2)"]
    for r in results:
        assert not r.passed
        assert r.residuals == [COUNTEREXAMPLE]
        assert r.to_json()["residuals"] == [COUNTEREXAMPLE]
