import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from qexpmap import expmap, suites
from qexpmap.algebra_a import apq_presentation
from qexpmap.cli import build_parser, main
from qexpmap.rewrite import NCPoly, UsageError
from qexpmap.scalars import ScalarError


LATEX_CALLS = (
    "tmatrix --j 3/2 --z 1",
    "tmatrix --j 3/2 --z 1 --form factorized",
    "lmatrix --sign - --j 1",
    "rmatrix --j1 1/2 --z1 1/2 --j2 1 --z2 1/2",
    "normal-order --algebra U e^2*f^2",
)

# multi-term expressions with repeated words and powers of sums, whose
# like terms merge before and during normal ordering
NORMAL_ORDER_CALLS = (
    ("A", "(a+b)^3*(c+d)^2"),
    ("A", "2*a*b - 3*b*a + a*b"),
    ("A", "(d+c)^2*(b+a)^2"),
    ("A", "(a*d - q*b*c)^2 - d*a + a*d"),
    ("A", "(D^1/2 + a)^2*(d + a^-1) + p*q^-1*c*b*(a - 2*a)"),
    ("A", "3 + 2 - 5*a + a + 4*a*D^-1/2*D^1/2"),
    ("U", "(e+f)^3"),
    ("U", "2*e*f - 3*f*e + e*f"),
    ("U", "(e+f+k^1/2)^3"),
    ("U", "(k + k^-1)^2*(e+f)^2"),
    ("U", "e^2*f^2 - f^2*e^2 + Q*e*f"),
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNormalOrder:
    def test_defining_relation(self, capsys):
        code, out, _ = run(capsys, "normal-order", "--algebra", "A", "d*a")
        assert code == 0
        assert out.strip() == "a*d + (-q + p^-1)*b*c"

    def test_determinant_forms_cancel(self, capsys):
        code, out, _ = run(capsys, "normal-order", "--algebra", "A",
                           "a*d - q*b*c - (a*d - p*c*b)")
        assert code == 0
        assert out.strip() == "0"

    def test_dual_algebra(self, capsys):
        code, out, _ = run(capsys, "normal-order", "--algebra", "U", "e*f")
        assert code == 0
        assert out.startswith("f*e")

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "normal-order", "a*)b")
        assert code == 2
        assert err

    def test_non_invertible_power_exit_two(self, capsys):
        code, out, err = run(capsys, "normal-order", "--algebra", "A", "b^-1")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: negative power of non-invertible b"

    def test_guard_exit_three(self, capsys, monkeypatch):
        monkeypatch.setenv("QEXPMAP_GUARD", "2")
        code, _, err = run(capsys, "normal-order", "d^3*a^3")
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("algebra,expr", [("A", "a^1/0"),
                                              ("U", "k^1/0")])
    def test_zero_denominator_exit_two(self, capsys, algebra, expr):
        code, out, err = run(capsys, "normal-order", "--algebra", algebra,
                             expr)
        assert code == 2
        assert out == ""
        assert err.strip() == ("error: zero denominator in exponent "
                               "(at offset 4)")

    def test_guard_bounds_the_expansion(self, capsys, monkeypatch):
        # expanding (a+b)^16 in full makes 2^16 raw terms before the
        # engine's guard starts counting: seconds and about 150 MB, doubling
        # with each step of the exponent
        monkeypatch.setenv("QEXPMAP_GUARD", "100")
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "normal-order", "(a+b)^16")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        assert "guard" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_guard_exit_two(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QEXPMAP_GUARD", value)
        code, _, err = run(capsys, "normal-order", "a")
        assert code == 2
        assert "QEXPMAP_GUARD" in err

    def test_multi_term_bytes_match_reference(self, capsys):
        # tests/refs/normal_order.txt holds each call's stdout in text and
        # JSON, each after a "% qexpmap <args>" line, recorded with earlier
        # code that normal-ordered every parsed expression twice
        got = []
        for alg, expr in NORMAL_ORDER_CALLS:
            for fmt in ("text", "json"):
                args = ["normal-order", "--algebra", alg, "--format", fmt,
                        expr]
                code, out, _ = run(capsys, *args)
                assert code == 0
                got.append(f"% qexpmap {' '.join(args)}\n{out}")
        ref = Path(__file__).parent / "refs" / "normal_order.txt"
        assert "".join(got).encode() == ref.read_bytes()

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "normal-order", "--format", "json", "d*a")
        assert code == 0
        data = json.loads(out)
        poly = NCPoly.from_json(apq_presentation(), data["terms"])
        assert str(poly) == "a*d + (-q + p^-1)*b*c"


class TestMatrixCommands:
    def test_tmatrix_defining(self, capsys):
        code, out, _ = run(capsys, "tmatrix", "--j", "1/2", "--z", "1/2")
        assert code == 0
        assert out.splitlines() == ["[a, b]", "[c, d]"]

    def test_tmatrix_forms_agree(self, capsys):
        code1, out1, _ = run(capsys, "tmatrix", "--j", "1", "--z", "1/2",
                             "--format", "json")
        code2, out2, _ = run(capsys, "tmatrix", "--j", "1", "--z", "1/2",
                             "--form", "factorized", "--format", "json")
        assert code1 == code2 == 0
        # the two constructions may store coefficients at different levels
        # of the scalar tower, so compare entries semantically
        m1, m2 = json.loads(out1), json.loads(out2)
        assert m1["rows"] == m2["rows"]
        pres = apq_presentation()
        for row1, row2 in zip(m1["entries"], m2["entries"]):
            for e1, e2 in zip(row1, row2):
                p1 = NCPoly.from_json(pres, e1["terms"])
                p2 = NCPoly.from_json(pres, e2["terms"])
                assert (p1 - p2).is_zero()

    def test_tmatrix_latex(self, capsys):
        code, out, _ = run(capsys, "tmatrix", "--j", "1", "--z", "1/2",
                           "--format", "latex")
        assert code == 0
        assert out.startswith(r"\left(\begin{array}{ccc}")
        assert r"\sqrt{[2]}" in out

    def test_latex_bytes_match_reference(self, capsys):
        # tests/refs/render_latex.txt holds these calls' stdout, each after
        # a "% qexpmap <args>" line, recorded with earlier code; together
        # they print \frac, \sqrt, {\cal D}, \lambda and half exponents
        got = []
        for args in LATEX_CALLS:
            code, out, _ = run(capsys, *args.split(), "--format", "latex")
            assert code == 0
            got.append(f"% qexpmap {args}\n{out}")
        ref = Path(__file__).parent / "refs" / "render_latex.txt"
        assert "".join(got).encode() == ref.read_bytes()

    @pytest.mark.parametrize("j", ["1/3", "-1/2"],
                             ids=["one_third", "minus_half"])
    @pytest.mark.parametrize("command", ["tmatrix", "lmatrix", "rmatrix"])
    def test_bad_spin_exit_two(self, capsys, command, j):
        args = {"tmatrix": [f"--j={j}", f"--z={j}"],
                "lmatrix": ["--sign", "+", f"--j={j}"],
                "rmatrix": [f"--j1={j}", f"--z1={j}", "--j2", "1/2",
                            "--z2", "1/2"]}[command]
        code, _, err = run(capsys, command, *args)
        assert code == 2
        assert err == ("error: spin j must be a non-negative half-integer, "
                       f"got {Fraction(j)}\n")

    @pytest.mark.parametrize("args", [
        "tmatrix --j 1/2 --z -1/2",
        "rmatrix --j1 1/2 --z1 -1/2 --j2 1/2 --z2 1/2",
        "verify --suite comodule --j 1/2 --z -1/2"])
    def test_negative_rational_after_space(self, capsys, args):
        # the space form must read like the = form, not as an option -1/2
        spaced = args.split()
        code, out, err = run(capsys, *spaced)
        assert code == 0 and err == ""
        i = spaced.index("-1/2")
        joined = spaced[:i - 1] + [f"{spaced[i - 1]}=-1/2"] + spaced[i + 1:]
        assert run(capsys, *joined) == (0, out, "")

    @pytest.mark.parametrize("form", ["closed", "factorized"])
    def test_bad_charge_exit_two(self, capsys, form):
        code, _, err = run(capsys, "tmatrix", "--j", "1", "--z", "1/3",
                           "--form", form)
        assert code == 2
        assert err == "error: charge z must differ from j by a half-integer\n"

    def test_lmatrix(self, capsys):
        code, out, _ = run(capsys, "lmatrix", "--sign", "+", "--j", "1")
        assert code == 0
        assert "sqrt([2])" in out

    def test_rmatrix(self, capsys):
        code, out, _ = run(capsys, "rmatrix", "--j1", "1/2", "--z1", "1/2",
                           "--j2", "1/2", "--z2", "1/2")
        assert code == 0
        assert len(out.splitlines()) == 4


MAX_J_RULE = ("--max-j applies only to --suite all, closed-vs-factorized, "
              "comodule, delta-l, pi-t-vs-r, rep-relations, rll, specialize")
MAX_LEN_RULE = "--max-len applies only to --suite all, confluence"
# each verify option that a suite does not read, or a range that selects no
# check, and the message it is rejected with
USAGE_ERRORS = {
    "--suite rll --j 1/3": "--j and --z apply only to --suite comodule",
    "--suite all --j 1": "--j and --z apply only to --suite comodule",
    "--suite closed-vs-factorized --j 1 --z 1/3":
        "--j and --z apply only to --suite comodule",
    "--suite qdet --z 0": "--j and --z apply only to --suite comodule",
    "--suite comodule --z 1/2": "--z needs --j",
    "--suite closed-vs-factorized --max-j 0":
        "--max-j must be a positive half-integer",
    "--suite rll --max-j -1": "--max-j must be a positive half-integer",
    "--suite rll --max-j 3/4": "--max-j must be a positive half-integer",
    "--suite all --max-j 1/4": "--max-j must be a positive half-integer",
    "--suite confluence --max-len 0": "--max-len must be at least 2",
    "--suite all --max-len 1": "--max-len must be at least 2",
    "--suite qdet --max-j 5": MAX_J_RULE,
    "--suite lie-coords --max-len 3": MAX_LEN_RULE,
    "--suite specialize --max-len 3": MAX_LEN_RULE,
    "--suite confluence --max-j 1": MAX_J_RULE,
    "--suite comodule --j 1 --max-j 2": "--max-j and --j exclude each other",
}


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "qdet")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert all(c["pass"] for c in report["checks"])

    def test_comodule_with_labels(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "comodule",
                           "--j", "1", "--z", "1/2")
        assert code == 0

    def test_confluence(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "confluence",
                           "--max-len", "3")
        assert code == 0

    def test_confluence_guard_exit_three(self, capsys, monkeypatch):
        # the explorer spends the same term guard as normal ordering
        monkeypatch.setenv("QEXPMAP_GUARD", "100")
        code, out, err = run(capsys, "verify", "--suite", "confluence")
        assert code == 3
        assert out == ""
        assert "confluence search exceeded the term guard" in err

    @pytest.mark.parametrize("args", [
        "--suite rll --j 1/3", "--suite all --j 1",
        "--suite closed-vs-factorized --j 1 --z 1/3", "--suite qdet --z 0",
        "--suite comodule --z 1/2"])
    def test_unused_spin_options_exit_two(self, capsys, args):
        # --j and --z choose the comodule check's spin and charge, and --z
        # needs --j; any other use is a usage error, not silently ignored
        code, out, err = run(capsys, "verify", *args.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: --")

    @pytest.mark.parametrize("args", [
        "--suite closed-vs-factorized --max-j 0", "--suite rll --max-j -1",
        "--suite rll --max-j 3/4", "--suite all --max-j 1/4",
        "--suite confluence --max-len 0", "--suite all --max-len 1",
        "--suite qdet --max-j 5", "--suite lie-coords --max-len 3",
        "--suite specialize --max-len 3", "--suite confluence --max-j 1",
        "--suite comodule --j 1 --max-j 2"])
    def test_vacuous_or_unread_range_exit_two(self, capsys, args):
        # a range that selects no check, or one the suite does not read,
        # would report a pass that checked nothing it was asked to
        code, out, err = run(capsys, "verify", *args.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: --")

    @pytest.mark.parametrize("args, message", USAGE_ERRORS.items(),
                             ids=list(USAGE_ERRORS))
    def test_run_suite_keeps_the_option_rules(self, capsys, args, message):
        # the library call rejects the same options as the CLI, which
        # prints the library's message
        opts = build_parser().parse_args(["verify", *args.split()])
        with pytest.raises(UsageError) as exc:
            suites.run_suite(opts.suite, max_j=opts.max_j,
                             max_len=opts.max_len, j=opts.j, z=opts.z)
        assert str(exc.value) == message
        assert run(capsys, "verify", *args.split()) \
            == (2, "", f"error: {message}\n")

    def test_smallest_ranges_check_something(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rll",
                           "--max-j", "1/2")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["check"] for c in checks] == ["rll(j=1/2)"]
        code, out, _ = run(capsys, "verify", "--suite", "confluence",
                           "--max-len", "2")
        assert code == 0
        for check in json.loads(out)["checks"]:
            assert check["notes"] != ["words checked: 0"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "lie-coords",
                           "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["pass"] is True

    def test_unknown_suite_exit_two(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        with pytest.raises(UsageError, match="unknown suite"):
            suites.run_suite("nonsense")

    def test_unwritable_out_exit_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--suite", "lie-coords",
                             "--out", str(tmp_path / "absent" / "r.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    # tests/refs/ holds reports recorded with earlier code; `specialize`
    # lists its checks in builder order, not sorted, which is easy to break
    @pytest.mark.parametrize("suite", ["all", "specialize", "confluence_len4"])
    def test_report_bytes_match_reference(self, capsys, tmp_path, suite):
        args = {"confluence_len4": ["confluence", "--max-len", "4"]}
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--suite",
                         *args.get(suite, [suite]), "--out", str(path))
        assert code == 0
        ref = Path(__file__).parent / "refs" / f"verify_{suite}.json"
        assert path.read_bytes() == ref.read_bytes()


def other_interpreters():
    """Python interpreters >= 3.10 installed beside this one (as pyenv
    lays them out, <prefix>/../<version>/bin/python), other than it."""
    found = []
    for exe in Path(sys.base_prefix).parent.glob("*/bin/python"):
        try:
            version = tuple(int(p) for p in exe.parent.parent.name.split("."))
        except ValueError:
            continue
        if version >= (3, 10) and version != sys.version_info[:len(version)]:
            found.append((version, exe))
    return [exe for _, exe in sorted(found)]


# the report must not depend on the Python version; with no other
# interpreter installed the test is skipped
@pytest.mark.parametrize("python", other_interpreters(),
                         ids=lambda exe: exe.parent.parent.name)
def test_verify_all_bytes_across_interpreters(python):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [str(python), "-m", "qexpmap.cli", "verify", "--suite", "all"],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    ref = Path(__file__).parent / "refs" / "verify_all.json"
    assert proc.stdout == ref.read_bytes()


class TestInternalError:
    # an exception that is not a usage error is a defect of the program:
    # exit 4 with its traceback, never the usage code 2
    @pytest.mark.parametrize("exc", [KeyError("x"), ValueError("x"),
                                     ScalarError("x"), TypeError("x")])
    def test_exit_four(self, capsys, monkeypatch, exc):
        def broken(*args):
            raise exc

        monkeypatch.setattr(expmap, "l_matrix", broken)
        code, out, err = run(capsys, "lmatrix", "--sign", "+", "--j", "1")
        assert code == 4
        assert out == ""
        assert "Traceback" in err and "internal error" in err


class TestGolden:
    def test_record_then_compare(self, capsys, tmp_path):
        code, _, _ = run(capsys, "golden", "record", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "golden", "compare", str(tmp_path))
        assert code == 0
        assert json.loads(out)["mismatches"] == []

    def test_tampered_exit_one(self, capsys, tmp_path):
        run(capsys, "golden", "record", str(tmp_path))
        victim = tmp_path / "t_defining.json"
        victim.write_text(victim.read_text().replace('"a"', '"d"'))
        code, out, _ = run(capsys, "golden", "compare", str(tmp_path))
        assert code == 1
        assert "t_defining" in json.loads(out)["mismatches"]

    def test_missing_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "golden", "compare",
                           str(tmp_path / "absent"))
        assert code == 2


def test_import_loads_no_introspection_modules():
    """Importing the CLI runs no class-building machinery: qexpmap itself
    must not load dataclasses or the inspect/ast/dis/tokenize tree behind
    it.  Modules the interpreter's site hooks loaded first are not ours."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import json, sys; before = set(sys.modules); "
            "import qexpmap.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = set(json.loads(proc.stdout))
    assert "qexpmap.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
