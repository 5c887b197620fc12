"""End-to-end acceptance gate: every headline property of the package,
checked exactly (zero tolerance) with numeric spot-checks at 1e-10."""

import time
from fractions import Fraction
from pathlib import Path

from qexpmap.algebra_a import apq_presentation
from qexpmap.algebra_u import u_presentation
from qexpmap.confluence import confluence_check
from qexpmap.expmap import (l_matrix, r_matrix_rep, t_matrix_closed,
                            t_matrix_factorized)
from qexpmap import goldens
from qexpmap.suites import printed_r_half, random_points, run_suite

import oracles

HALF = Fraction(1, 2)


def assert_suite(name, **opts):
    results = run_suite(name, **opts)
    failing = [(r.check, r.residuals) for r in results if not r.passed]
    assert not failing, f"failing checks: {failing}"
    return results


def test_01_defining_relations_determinant_and_counit():
    assert_suite("relations")
    assert_suite("qdet")


def test_02_exponential_coordinate_relations():
    assert_suite("lie-coords")


def test_03_confluence_of_both_presentations():
    for pres in (apq_presentation(), u_presentation()):
        report = confluence_check(pres, max_len=3)
        assert report.confluent, report.counterexamples
    start = time.monotonic()
    report = confluence_check(apq_presentation(), max_len=4)
    elapsed = time.monotonic() - start
    assert report.confluent, report.counterexamples
    assert elapsed < 60.0


def test_04_fundamental_and_spin_one_t_matrices():
    got = t_matrix_closed(HALF, HALF, "symmetric")
    assert (got - oracles.t_defining()).is_zero()
    got = t_matrix_closed(1, HALF, "symmetric")
    assert (got - oracles.t_spin1_charge_half()).is_zero()


def test_05_closed_form_equals_factorized_form():
    assert_suite("closed-vs-factorized")


def test_06_comodule_property():
    assert_suite("comodule")


def test_07_representation_relations_and_similarity():
    assert_suite("rep-relations")


def test_08_evaluation_maps_are_homomorphisms():
    assert_suite("pi-homomorphism")


def test_09_l_matrices_match_reference_forms():
    for sign in ("+", "-"):
        got = l_matrix(sign, HALF, "symmetric")
        assert (got - oracles.l_fundamental(sign)).is_zero()
        got = l_matrix(sign, 1, "symmetric")
        assert (got - oracles.l_spin1(sign)).is_zero()


def test_10_rll_exchange_relations():
    assert_suite("rll")


def test_11_l_matrix_comodule_property():
    assert_suite("delta-l")


def test_12_fundamental_r_matrix_and_quasitriangularity():
    got = r_matrix_rep(HALF, HALF, HALF, HALF)
    assert (got - printed_r_half()).is_zero()
    assert_suite("quasitriangular")


def test_13_restricted_t_matrix_entries_match_r_matrix():
    results = assert_suite("pi-t-vs-r")
    # the minus-sign convention must be stated in the report
    notes = [n for r in results for n in r.notes]
    assert any("inverse" in n for n in notes)


def test_14_swapped_canonical_element_matches_r_matrix():
    results = assert_suite("tprime-r")
    notes = [n for r in results for n in r.notes]
    assert any("inverse" in n for n in notes)


def test_15_numeric_specialization_agrees():
    points = random_points(5)
    assert len(points) == 5
    assert_suite("specialize")


def test_16_golden_files_byte_stable(tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    goldens.record(first)
    goldens.record(second)
    for name in sorted(goldens.GOLDEN_BUILDERS):
        b1 = (first / f"{name}.json").read_bytes()
        b2 = (second / f"{name}.json").read_bytes()
        assert b1 == b2, f"golden {name} not byte-stable"
    assert goldens.compare(first) == []


def test_17_committed_goldens_unchanged():
    # tests/goldens/ holds recordings committed earlier, so this catches
    # drift that two fresh recordings (test_16) would agree on
    assert goldens.compare(Path(__file__).parent / "goldens") == []
