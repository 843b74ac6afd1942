"""The library's argument contract, one table for every public entry point.

An integer argument (a dimension, degree, index or cutoff) is an ``int``,
never a bool, with a stated minimum.  An order (the Schatten r, the Sobolev
s and t, a spectral cutoff, an exponent) is an ``int``, a ``Fraction`` or a
finite ``float``.  A polynomial coefficient is an ``int`` (not a bool), a
``Fraction`` or an ``ExactScalar``.  Anything else is a ``ValueError``: never
a ``TypeError``, a ``RecursionError`` or a silently returned value.
"""

import dataclasses
import inspect
import math
import random
import re
from fractions import Fraction

import pytest

from kohn_spectra import harmonic_spaces, operators, polynomials, schatten, sobolev, spectrum
from kohn_spectra.polynomials import Bidegree, ExactScalar, FormatError, Polynomial

MODULES = (polynomials, spectrum, harmonic_spaces, operators, schatten, sobolev)

# Parameters with these names are integers or orders wherever they appear.
CONTRACT_NAMES = {
    "n", "p", "q", "k", "k_max", "max_degree", "P", "Q", "j", "r", "s", "t",
    "degree", "cutoff", "exponent",
}

BAD_INTEGERS = (True, 2.5, "2")
BAD_ORDERS = (True, math.nan, math.inf, "1")

Z = Polynomial.z_bar(2, 1)
D = Bidegree(1, 1)

# qualified name, or name:variant for a further row of one function:
# (callable, valid keyword arguments, integer parameters, order parameters)
TABLE = {
    "polynomials.Polynomial.__init__": (Polynomial, dict(n=2), "n", ""),
    "polynomials.Polynomial.__pow__": (lambda exponent: Z**exponent, dict(exponent=2), "exponent", ""),
    "polynomials.Polynomial.zero": (Polynomial.zero, dict(n=2), "n", ""),
    "polynomials.Polynomial.constant": (Polynomial.constant, dict(n=2, value=1), "n", ""),
    "polynomials.Polynomial.z": (Polynomial.z, dict(n=2, j=1), "n j", ""),
    "polynomials.Polynomial.z_bar": (Polynomial.z_bar, dict(n=2, j=2), "n j", ""),
    "polynomials.Polynomial.monomial": (
        Polynomial.monomial, dict(n=2, alpha=(1, 0), beta=(0, 1)), "n", ""
    ),
    "polynomials.radius_squared": (polynomials.radius_squared, dict(n=2), "n", ""),
    "polynomials.monomial_sphere_integral": (
        polynomials.monomial_sphere_integral, dict(n=2, alpha=(1, 0)), "n", ""
    ),
    "polynomials.multiindices": (polynomials.multiindices, dict(n=2, degree=2), "n degree", ""),
    "polynomials.random_polynomial": (
        lambda **kw: polynomials.random_polynomial(random.Random(0), **kw),
        dict(n=2, max_degree=3, max_terms=2),
        "n max_degree max_terms",
        "",
    ),
    "spectrum.power": (spectrum.power, dict(base=3, exponent=2), "", "exponent"),
    "spectrum.boxb_eigenvalue": (spectrum.boxb_eigenvalue, dict(n=2, d=D), "n", ""),
    "spectrum.multiplicity": (spectrum.multiplicity, dict(n=2, d=D), "n", ""),
    "spectrum.multiplicity_binomial": (spectrum.multiplicity_binomial, dict(n=2, d=D), "n", ""),
    "spectrum.laplace_beltrami_eigenvalue": (
        spectrum.laplace_beltrami_eigenvalue, dict(n=2, k=1), "n k", ""
    ),
    "spectrum.lambda_min": (spectrum.lambda_min, dict(n=2, k=1), "n k", ""),
    "spectrum.sphere_harmonic_dim": (spectrum.sphere_harmonic_dim, dict(n=2, k=1), "n k", ""),
    "spectrum.spectrum_table": (spectrum.spectrum_table, dict(n=2, cutoff=4), "n", "cutoff"),
    "spectrum.aggregate_spectrum": (spectrum.aggregate_spectrum, dict(n=2, cutoff=4), "n", "cutoff"),
    "harmonic_spaces.bidegree_monomials": (harmonic_spaces.bidegree_monomials, dict(n=2, d=D), "n", ""),
    "harmonic_spaces.harmonic_basis": (harmonic_spaces.harmonic_basis, dict(n=2, d=D), "n", ""),
    "harmonic_spaces.verify_eigen_identities": (
        harmonic_spaces.verify_eigen_identities, dict(n=2, max_degree=1), "n max_degree", ""
    ),
    "operators.green_symbol": (operators.green_symbol, dict(n=2, d=D), "n", ""),
    "operators.sobolev_symbol": (operators.sobolev_symbol, dict(n=2, t=1, d=D), "n", "t"),
    "operators.apply_sobolev_power": (operators.apply_sobolev_power, dict(f=Z, t=1), "", "t"),
    "operators.sobolev_norm_squared": (operators.sobolev_norm_squared, dict(f=Z, s=1), "", "s"),
    "schatten.schatten_term": (schatten.schatten_term, dict(n=2, r=3, p=1, q=1), "n p q", "r"),
    "schatten.upper_bound_term": (schatten.upper_bound_term, dict(n=2, r=3, p=1, q=1), "n p q", "r"),
    "schatten.lower_bound_term": (schatten.lower_bound_term, dict(n=2, r=3, p=2, q=1), "n p q", "r"),
    "schatten.partial_sum": (schatten.partial_sum, dict(n=2, r=3, P=2, Q=2), "n P Q", "r"),
    "schatten.partial_sum_series": (
        schatten.partial_sum_series, dict(n=2, r=3, cutoff=2), "n cutoff", "r"
    ),
    "schatten.tail_upper_bound": (schatten.tail_upper_bound, dict(n=2, r=3, P=2, Q=2), "n P Q", "r"),
    "schatten.tail_lower_bound": (schatten.tail_lower_bound, dict(n=2, r=3, P=2, Q=2), "n P Q", "r"),
    # the float branches read memoised 1-d sums: a valid call warms that cache too
    "schatten.partial_sum:float": (
        schatten.partial_sum, dict(n=2, r=Fraction(5, 2), P=2, Q=2), "n P Q", "r"
    ),
    "schatten.tail_upper_bound:float": (
        schatten.tail_upper_bound, dict(n=2, r=Fraction(5, 2), P=2, Q=2), "n P Q", "r"
    ),
    "schatten.tail_lower_bound:float": (
        schatten.tail_lower_bound, dict(n=2, r=Fraction(5, 2), P=2, Q=2), "n P Q", "r"
    ),
    "schatten.schatten_report:float": (
        schatten.schatten_report, dict(n=2, r=Fraction(5, 2), P=2, Q=2), "n P Q", "r"
    ),
    "schatten.lower_bound_sum": (schatten.lower_bound_sum, dict(n=2, r=2, P=2, Q=2), "n P Q", "r"),
    "schatten.verdict": (schatten.verdict, dict(n=2, r=3), "n", "r"),
    "schatten.approx_formula": (schatten.approx_formula, dict(n=2, r=3), "n", "r"),
    "schatten.approx_pole_constant": (schatten.approx_pole_constant, dict(n=2), "n", ""),
    "schatten.schatten_report": (schatten.schatten_report, dict(n=2, r=3, P=2, Q=2), "n P Q", "r"),
    "sobolev.ratio": (sobolev.ratio, dict(n=2, s=1, k=1), "n k", "s"),
    "sobolev.ratio_series": (sobolev.ratio_series, dict(n=2, s=1, k_max=2), "n k_max", "s"),
    "sobolev.is_bounded": (sobolev.is_bounded, dict(n=2, s=1), "n", "s"),
    "sobolev.critical_degree": (sobolev.critical_degree, dict(n=2), "n", ""),
    "sobolev.argmax_degree": (sobolev.argmax_degree, dict(n=2), "n", ""),
    "sobolev.equality_bidegree": (sobolev.equality_bidegree, dict(n=2), "n", ""),
    "sobolev.decreasing_tail_certificate": (sobolev.decreasing_tail_certificate, dict(n=2), "n", ""),
    "sobolev.theorem_display_c_squared": (sobolev.theorem_display_c_squared, dict(n=2), "n", ""),
    "sobolev.proof_display_c_squared": (sobolev.proof_display_c_squared, dict(n=2), "n", ""),
    "sobolev.best_constant": (sobolev.best_constant, dict(n=2), "n", ""),
    "sobolev.sobolev_gain_certificate": (
        sobolev.sobolev_gain_certificate, dict(n=2, f=Z, s=0), "n", "s"
    ),
}

CASES = [
    pytest.param(name, param, bad, id=f"{name}-{param}-{bad!r}")
    for name, (_, _, ints, orders) in TABLE.items()
    for params, bads in ((ints, BAD_INTEGERS), (orders, BAD_ORDERS))
    for param in params.split()
    for bad in bads
]


def public_functions():
    """(qualified name, function) for every module-level public function and
    every method of a public non-record class of the library's modules."""
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        names = getattr(module, "__all__", None) or [x for x in vars(module) if not x.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{short}.{name}", obj
            elif (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and not dataclasses.is_dataclass(obj)
                and not issubclass(obj, (tuple, Exception))
            ):
                for attr, value in vars(obj).items():
                    fn = getattr(value, "__func__", value)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        yield f"{short}.{name}.{attr}", fn


def test_table_covers_every_contract_parameter():
    missing = []
    for name, fn in public_functions():
        params = {p for p in inspect.signature(fn).parameters if p in CONTRACT_NAMES}
        listed = set(" ".join(TABLE[name][2:]).split()) if name in TABLE else set()
        missing += [f"{name}({p})" for p in sorted(params - listed)]
    assert not missing, f"not in the contract table: {missing}"


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_arguments_accepted(name):
    function, kwargs, _, _ = TABLE[name]
    function(**kwargs)


@pytest.mark.parametrize("name, param, bad", CASES)
def test_malformed_argument_is_a_value_error(name, param, bad):
    function, kwargs, _, _ = TABLE[name]
    with pytest.raises(ValueError):
        function(**{**kwargs, param: bad})


INTEGER_PARAMS = [
    pytest.param(name, param, id=f"{name}-{param}")
    for name, (_, _, ints, _) in TABLE.items()
    for param in ints.split()
]


@pytest.mark.parametrize("name, param", INTEGER_PARAMS)
def test_integral_float_is_rejected_after_a_valid_call(name, param):
    """2.0 == 2 and hash(2.0) == hash(2), so a cache reached before the
    integer check would hand back the answer for 2; the valid call warms it."""
    function, kwargs, _, _ = TABLE[name]
    function(**kwargs)
    with pytest.raises(ValueError):
        function(**{**kwargs, param: float(kwargs[param])})


ZERO2 = ((0, 0), (0, 0))

# qualified name: (callable, valid keyword arguments, coefficient parameter)
COEFFICIENTS = {
    "polynomials.ExactScalar.re": (ExactScalar, dict(re=Fraction(1, 2)), "re"),
    "polynomials.ExactScalar.im": (ExactScalar, dict(im=3), "im"),
    "polynomials.Polynomial.__init__": (
        lambda coeff: Polynomial(2, {ZERO2: coeff}), dict(coeff=ExactScalar(1, 2)), "coeff"
    ),
    "polynomials.Polynomial.constant": (Polynomial.constant, dict(n=2, value=1), "value"),
    "polynomials.Polynomial.monomial": (
        Polynomial.monomial, dict(n=2, alpha=(1, 0), beta=(0, 0), coeff=Fraction(2, 3)), "coeff"
    ),
    "polynomials.Polynomial.scale": (Z.scale, dict(factor=2), "factor"),
}

BAD_COEFFICIENTS = (0.5, 1.0, True, "1", None, 1j)


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_exact_coefficient_accepted(name):
    function, kwargs, _ = COEFFICIENTS[name]
    function(**kwargs)


@pytest.mark.parametrize(
    "name, bad",
    [pytest.param(name, bad, id=f"{name}-{bad!r}") for name in COEFFICIENTS for bad in BAD_COEFFICIENTS],
)
def test_inexact_coefficient_is_a_value_error(name, bad):
    function, kwargs, param = COEFFICIENTS[name]
    with pytest.raises(ValueError, match="coefficient"):
        function(**{**kwargs, param: bad})


@pytest.mark.parametrize("bad", [0.5, 1, None, "0.5", "1/2.5"])
def test_inexact_serialized_coefficient_is_a_format_error(bad):
    obj = {"n": 2, "terms": [{"alpha": [0, 0], "beta": [0, 0], "re": "1/1", "im": bad}]}
    with pytest.raises(FormatError, match="term 0"):
        polynomials.polynomial_from_dict(obj)


@pytest.mark.parametrize("entry", [True, 1.0, "1", -1, None])
def test_multiindex_entries_are_nonnegative_ints(entry):
    with pytest.raises(ValueError, match="multiindex"):
        Polynomial.monomial(2, (entry, 0), (0, 0))


BIDEGREE_FUNCTIONS = sorted(
    name for name, fn in public_functions() if "d" in inspect.signature(fn).parameters
)


@pytest.mark.parametrize("name", BIDEGREE_FUNCTIONS)
def test_bidegree_is_a_pair_of_nonnegative_ints(name):
    function, kwargs, _, _ = TABLE[name]
    function(**{**kwargs, "d": (1, 1)})
    for bad in [(1.5, 1), (True, 1), (1, -1)]:
        with pytest.raises(ValueError):
            function(**{**kwargs, "d": bad})


BAD_BIDEGREES = ((1, 2, 3), (1,), 5, None)


@pytest.mark.parametrize(
    "name, bad",
    [pytest.param(name, bad, id=f"{name}-{bad!r}") for name in BIDEGREE_FUNCTIONS for bad in BAD_BIDEGREES],
)
def test_bidegree_that_is_not_a_pair_is_a_value_error(name, bad):
    function, kwargs, _, _ = TABLE[name]
    with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
        function(**{**kwargs, "d": bad})


@pytest.mark.parametrize("make", [tuple, lambda pair: Bidegree(*pair)], ids=["tuple", "Bidegree"])
@pytest.mark.parametrize("name", BIDEGREE_FUNCTIONS)
def test_bad_bidegree_entries_are_named_as_a_bidegree(name, make):
    function, kwargs, _, _ = TABLE[name]
    for bad, message in [
        ((1.0, 2), "bidegree entries must be integers, got Bidegree(p=1.0, q=2)"),
        ((-1, 0), "bidegree entries must be nonnegative, got Bidegree(p=-1, q=0)"),
    ]:
        with pytest.raises(ValueError) as info:
            function(**{**kwargs, "d": make(bad)})
        assert str(info.value) == message


ORDER_PARAMS = [
    pytest.param(name, param, id=f"{name}-{param}")
    for name, (_, kwargs, _, orders) in TABLE.items()
    for param in orders.split()
    if type(kwargs[param]) is int
]


def same(a, b) -> bool:
    """a == b with equal types throughout: field by field for a record,
    entry by entry for a sequence."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("name, param", ORDER_PARAMS)
def test_integral_order_gives_the_same_result_as_an_int_or_a_fraction(name, param):
    """An integral order takes one exact path whatever its type: k and
    Fraction(k) give equal results of the same type."""
    function, kwargs, _, _ = TABLE[name]
    k = kwargs[param]
    assert same(function(**kwargs), function(**{**kwargs, param: Fraction(k)}))
