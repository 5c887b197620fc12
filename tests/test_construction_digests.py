"""Every T, L and R construction, byte for byte, across spins.

tests/refs/construction_digests.json maps one key per construction to the
sha256 of its text, JSON and LaTeX renderings, recorded with earlier code.
FracScalar has no canonical form, so these bytes change whenever a
construction combines its values in another order, even when every value
stays equal.  To re-record after a deliberate change:

    PYTHONPATH=src python tests/test_construction_digests.py
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qexpmap.expmap import (l_matrix, r_matrix_rep, t_matrix_closed,
                            t_matrix_factorized)
from qexpmap.render import render_matrix

REF = Path(__file__).parent / "refs" / "construction_digests.json"
HALF = Fraction(1, 2)
NORMS = ("symmetric", "rational")


def digest(m) -> str:
    h = hashlib.sha256()
    for fmt in ("text", "json", "latex"):
        h.update(render_matrix(m, fmt).encode())
        h.update(b"\0")
    return h.hexdigest()


def t_cases(build):
    for twoj in range(6):
        j = Fraction(twoj, 2)
        for z in (j, j - HALF, j - 1):
            for norm in NORMS:
                yield f"{j} {z} {norm}", lambda j=j, z=z, norm=norm: \
                    build(j, z, norm)


def l_cases():
    for twoj in range(6):
        j = Fraction(twoj, 2)
        for sign in "+-":
            for norm in NORMS:
                yield f"{sign} {j} {norm}", lambda s=sign, j=j, norm=norm: \
                    l_matrix(s, j, norm)


def r_cases():
    # a spin-0 leg makes qexp's argument all zeros, so the type of its
    # unit comes from the representation alone
    for twoj1 in range(5):
        for twoj2 in range(min(4, 7 - twoj1) + 1):
            j1, j2 = Fraction(twoj1, 2), Fraction(twoj2, 2)
            for z1, z2 in ((0, 0), (j1, j2), (j1 - HALF, j2)):
                for norm in NORMS:
                    yield (f"{j1} {z1} {j2} {z2} {norm}",
                           lambda a=(j1, z1, j2, z2, norm): r_matrix_rep(*a))


CASES = {
    "t_matrix_closed": lambda: t_cases(t_matrix_closed),
    "t_matrix_factorized": lambda: t_cases(t_matrix_factorized),
    "l_matrix": l_cases,
    "r_matrix_rep": r_cases,
}


def digests(name) -> dict:
    return {key: digest(build()) for key, build in CASES[name]()}


@pytest.mark.parametrize("name", list(CASES))
def test_construction_bytes(name):
    want = json.loads(REF.read_text())[name]
    got = digests(name)
    assert list(got) == list(want)
    assert [k for k in got if got[k] != want[k]] == []


if __name__ == "__main__":
    REF.write_text(json.dumps({name: digests(name) for name in CASES},
                              indent=1) + "\n")
