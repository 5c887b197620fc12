"""The values kept for the whole process: every cache is a memo that
``memo.clear()`` forgets, except the presentations, which stay singletons."""

import importlib
import inspect
import json
import pkgutil
from fractions import Fraction

import qexpmap
from qexpmap import expmap, memo
from qexpmap.algebra_a import a_parse, apq_presentation, coproduct
from qexpmap.algebra_u import u_coproduct, u_parse, u_presentation
from qexpmap.expmap import (l_matrix, r_matrix_rep, t_matrix_closed,
                            t_matrix_factorized)
from qexpmap.render import matrix_json
from qexpmap.rewrite import tensor_square
from qexpmap.scalars import NumericParams, RadScalar, eval_points

HALF = Fraction(1, 2)
PRESENTATION_FACTORIES = (apq_presentation, u_presentation, tensor_square)


def caches_in_package():
    """Every object with a cache_info in a qexpmap module or in a class
    defined there, by its dotted name."""
    found = {}
    for info in pkgutil.walk_packages(qexpmap.__path__, "qexpmap."):
        module = importlib.import_module(info.name)
        spaces = [(info.name, vars(module))]
        spaces += [(f"{info.name}.{name}", vars(cls))
                   for name, cls in vars(module).items()
                   if inspect.isclass(cls) and cls.__module__ == info.name]
        for prefix, space in spaces:
            for name, obj in space.items():
                if hasattr(obj, "cache_info"):
                    found[f"{prefix}.{name}"] = obj
    return found


def test_every_cache_is_a_memo_or_a_presentation_factory():
    caches = caches_in_package()
    known = {id(c) for c in (*memo._MEMOS, *PRESENTATION_FACTORIES)}
    stray = [name for name, obj in caches.items() if id(obj) not in known]
    assert not stray, f"caches that memo.clear() misses: {stray}"
    assert known <= {id(obj) for obj in caches.values()}


def test_clear_empties_every_memo(fresh_caches):
    t_matrix_closed(1, 1)
    t_matrix_factorized(1, 1)
    l_matrix("+", 1)
    r_matrix_rep(1, 1, HALF, HALF)
    expmap._r21_inverse(HALF, HALF)
    coproduct(a_parse("a*b"))
    u_coproduct(u_parse("e*f"))
    eval_points(RadScalar.sqrt_qints([2]), [NumericParams(1.3, 0.7)])
    empty = [m.__wrapped__.__name__ for m in memo._MEMOS
             if not m.cache_info().currsize]
    assert not empty, f"built nothing in {empty}"
    memo.clear()
    assert [m.cache_info().currsize for m in memo._MEMOS] \
        == [0] * len(memo._MEMOS)


def test_clear_forgets_values_not_identities(fresh_caches):
    square = tensor_square(apq_presentation())
    old = t_matrix_closed(1, 1)
    memo.clear()
    new = t_matrix_closed(1, 1)
    assert new is not old
    assert json.dumps(matrix_json(new)) == json.dumps(matrix_json(old))
    old[0, 0] + new[0, 0]       # one presentation: the two still mix
    assert tensor_square(apq_presentation()) is square
