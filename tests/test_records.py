"""The ten result and parameter records of the package, as their callers use
them: field names and order, construction by position and by keyword,
equality, hashing, immutability and the checks three of them make.

Nine are ``typing.NamedTuple`` records, hashable and compared by field;
``RootData`` is a key of ``quadrature._isotype``'s cache and of the prefetch
memo.  ``QuadratureResult`` is a slotted class and no tuple, so that a
caller can tell a ``q_chi`` result from the (result, d1, d2) of
``q_chi_derivs``.
"""

import math
import re
from fractions import Fraction

import pytest

from qflat.flatness import (
    CentralityCheck,
    CurvatureGrid,
    FlatnessReport,
    RationalityArgument,
    SqrtRational,
    centrality_check,
    curvature_samples,
    rationality_argument,
    sqrt_rational,
    theorem_scan,
)
from qflat.hypergeom import RationalPoly, hypergeom_poly
from qflat.quadrature import ParameterRangeError, QPParams, QuadratureResult, q_chi
from qflat.spaces import ChiParams, Family, RootData, chi_params, parse_space


def _cp2():
    return parse_space("CP2")


def _poly():
    ch = chi_params(_cp2(), 3)
    return hypergeom_poly(ch.A, 3, ch.c)


# (record, its fields in order, the defaults of its trailing fields, a factory
# of an instance built the way the package builds one)
RECORDS = [
    (RootData, ("family", "size", "m", "m_beta", "m_half", "B"), {"B": 1.0}, _cp2),
    (ChiParams, ("n", "a", "b", "c", "A", "mu", "kappa", "nu", "r"), {},
     lambda: chi_params(_cp2(), 3)),
    (RationalPoly, ("coeffs",), {}, _poly),
    (QPParams, ("mu", "kappa", "nu", "tau"), {}, lambda: QPParams(1.5, 1.5, 0.5, 2.0)),
    (QuadratureResult, ("value", "abs_error", "nodes", "truncation_t", "log_value",
                        "rel_error", "budget"), {"budget": None},
     lambda: q_chi(_cp2(), 3, 2.0)),
    (SqrtRational, ("rat", "radicand"), {"radicand": 1},
     lambda: sqrt_rational(Fraction(1), 12)),
    (CentralityCheck, ("n", "lhs", "rhs", "passed"), {},
     lambda: centrality_check(_cp2(), [1])[0]),
    (RationalityArgument, ("n_used", "lhs", "rhs", "rhs_rational", "conclusion"), {},
     lambda: rationality_argument(_cp2())),
    (CurvatureGrid, ("space", "tau_grid", "values", "failures"), {},
     lambda: curvature_samples(_cp2(), 1, (1.0, 2.0))),
    (FlatnessReport, ("space", "n_max", "tau_grid", "curvature", "max_chi_deviation",
                      "prefactor_residual", "verdict", "exact_witness", "centrality",
                      "rationality", "failures"), {},
     lambda: theorem_scan([_cp2()], 1, (1.0, 2.0))[0]),
]


@pytest.mark.parametrize("cls,fields,defaults,build", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults, build):
    is_tuple = cls is not QuadratureResult
    assert (cls._fields if is_tuple else cls.__slots__) == fields
    inst = build()
    assert type(inst) is cls and isinstance(inst, tuple) is is_tuple
    values = [getattr(inst, name) for name in fields]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == inst and by_keyword == inst
    assert repr(by_position) == repr(inst)
    assert repr(inst).startswith(f"{cls.__name__}({fields[0]}=")
    if defaults:
        given = len(fields) - len(defaults)
        bare = cls(*values[:given])
        assert {name: getattr(bare, name) for name in defaults} == defaults
    # equality goes by field: the same record with its last field changed
    # (built without the checks, which a changed field may not pass) differs
    changed = values[:-1] + [object()]
    assert (cls._make(changed) if is_tuple else cls(*changed)) != inst
    with pytest.raises(AttributeError):
        inst.undeclared = 0  # no record has a __dict__
    if is_tuple:
        assert hash(by_keyword) == hash(inst) and {inst: 1}[by_position] == 1
        with pytest.raises(AttributeError):
            setattr(inst, fields[0], values[0])


S = Family.SPHERE
REFUSED = [
    (lambda: RootData(S, 3, 4, 2, 0), ValueError,
     "dimension identity violated: m=4 but m_beta+m_half+1=3"),
    (lambda: RootData(S, 1, 1, 0, 0), ValueError, "multiplicities out of range"),
    (lambda: RootData(S, 3, 3, 3, -1), ValueError, "multiplicities out of range"),
    (lambda: RootData(Family.COMPLEX_PROJECTIVE, 2, 4, 2, 1), ValueError,
     "m_half must be even, got 1"),
    (lambda: RootData(S, 4, 4, 1, 2), ValueError,
     "spheres have a reduced root system (m_half = 0)"),
    (lambda: RootData(S, 3, 3, 2, 0, 0.0), ValueError,
     "B must be positive and finite, got 0.0"),
    (lambda: RootData(family=S, size=3, m=3, m_beta=2, m_half=0, B=math.nan),
     ValueError, "B must be positive and finite, got nan"),
    (lambda: RootData(S, 3, 3, 2, 0, math.inf), ValueError,
     "B must be positive and finite, got inf"),
    (lambda: parse_space("S3").with_scale(-1.0), ValueError,
     "B must be positive and finite, got -1.0"),
    (lambda: parse_space("OP2").with_scale(math.nan), ValueError,
     "B must be positive and finite, got nan"),
    (lambda: RootData(S, 3, 3), TypeError, ""),
    (lambda: RationalPoly(()), ValueError, "a polynomial needs at least one coefficient"),
    (lambda: RationalPoly(coeffs=[]), ValueError,
     "a polynomial needs at least one coefficient"),
    (lambda: RationalPoly(("x",)), ValueError, "Invalid literal for Fraction: 'x'"),
    (lambda: RationalPoly((1.0, math.nan)), ValueError,
     "cannot convert NaN to integer ratio"),
    (lambda: RationalPoly((math.inf,)), OverflowError,
     "cannot convert Infinity to integer ratio"),
    (lambda: QPParams(math.nan, 0.0, 0.0, 1.0), ParameterRangeError,
     "mu must be finite, got nan"),
    (lambda: QPParams(0.0, -0.5, 0.0, 1.0), ParameterRangeError,
     "kappa must be nonnegative, got -0.5"),
    (lambda: QPParams(-1.0, 0.0, math.inf, 1.0), ParameterRangeError,
     "mu must be nonnegative, got -1.0"),
    (lambda: QPParams(0.0, 0.0, math.inf, 1.0), ParameterRangeError,
     "nu must be finite, got inf"),
    (lambda: QPParams(0.0, 0.0, 0.0, 0.0), ParameterRangeError,
     "tau must be positive, got 0.0"),
    (lambda: QPParams(mu=0.0, kappa=0.0, nu=0.0, tau=-1.0), ParameterRangeError,
     "tau must be positive, got -1.0"),
    (lambda: QPParams(0.0, 0.0, 0.0, math.inf), ParameterRangeError,
     "tau must be finite, got inf"),
    (lambda: QPParams(1.0), TypeError, ""),
]


@pytest.mark.parametrize("build,error,message", REFUSED,
                         ids=[f"{i}-{r[1].__name__}" for i, r in enumerate(REFUSED)])
def test_checked_records_refuse(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}" if message else None) as info:
        build()
    assert type(info.value) is error
