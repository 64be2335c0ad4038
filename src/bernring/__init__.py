"""Exact computer algebra for the ring of Bernoulli-type Laurent series.

The package builds the Q-span of the generators T^m * B(bT)^n * e^{aT} inside
Q((T)), where B = T/(e^T - 1), together with:

* exact rational/polynomial arithmetic and truncated Laurent series with
  guaranteed order bounds (:mod:`bernring.polys`, :mod:`bernring.series`);
* symbolic elements with a sound-and-complete zero test
  (:mod:`bernring.elements`);
* the Weyl algebra Q<T, d/dT> acting on both representations
  (:mod:`bernring.weyl`);
* partial-fraction data and the rewriting algorithms that close the span
  under products and express everything over first-order generators
  (:mod:`bernring.partfrac`, :mod:`bernring.reduction`);
* exact verification of the classical identity families that fall out
  (:mod:`bernring.identities`), plus a CLI (``bernring``) and an acceptance
  suite (:mod:`bernring.selftest`).

Everything is computed over exact rationals; no floating point anywhere.
"""

from .elements import Atom, BElement, atom, b_element, from_scalar, t_element
from .identities import (
    BernSymbol,
    CoefficientIdentity,
    IdentityReport,
    coefficient_identity,
)
from .partfrac import GPair, HFPair, g_pair, h_f, lemma_decompose
from .polys import Poly, Rational, binomial
from .reduction import (
    DCombination,
    agoh_dilcher_reduce,
    f_n_closed,
    f_n_inductive,
    negative_power_expand,
    product_reduce,
    reduce_to_first_order,
    stirling,
)
from .series import (
    InsufficientBoundError,
    TruncatedSeries,
    bernoulli_number,
    bernoulli_number_order,
    bernoulli_poly_value,
    bernoulli_polynomial,
    bernoulli_series,
    exp_series,
)
from .weyl import WeylOp, derivative_of_atom, derivative_of_element

__version__ = "0.1.0"
