"""Exact symbolic kernel for the two-parameter quantum group of 2x2 matrices,
its dual algebra, and the exponential map connecting them."""

from .algebra_a import (a_parse, agen, apq_presentation, coproduct, counit,
                        exponential_coordinates, quantum_determinant)
from .algebra_u import (Rep, gamma_rep, hatted, pi_apply, u_coproduct, u_parse,
                        u_presentation, u_rep_apply, ugen)
from .confluence import ConfluenceReport, confluence_check
from .expmap import (l_matrix, qexp, r_matrix_rep, t_matrix_closed,
                     t_matrix_factorized)
from .matrices import Matrix, MatrixError
from .reporting import CheckResult, Identity
from .rewrite import (GuardExceeded, NCPoly, ParseError, Presentation,
                      RewriteError)
from .scalars import (FracScalar, HalfLaurent, NumericParams, RadScalar,
                      ScalarError, eval_numeric, lam_pow, p_pow, q_pow, qfact,
                      qint, Q_pow)
from .suites import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "a_parse", "agen", "apq_presentation", "coproduct", "counit",
    "exponential_coordinates", "quantum_determinant",
    "Rep", "gamma_rep", "hatted", "pi_apply", "u_coproduct", "u_parse",
    "u_presentation", "u_rep_apply", "ugen",
    "ConfluenceReport", "confluence_check",
    "l_matrix", "qexp", "r_matrix_rep", "t_matrix_closed",
    "t_matrix_factorized",
    "Matrix", "MatrixError",
    "CheckResult", "Identity",
    "GuardExceeded", "NCPoly", "ParseError", "Presentation", "RewriteError",
    "FracScalar", "HalfLaurent", "NumericParams", "RadScalar", "ScalarError",
    "eval_numeric", "lam_pow", "p_pow", "q_pow", "qfact", "qint", "Q_pow",
    "SUITES", "run_suite",
    "__version__",
]
