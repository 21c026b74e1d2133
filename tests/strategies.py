"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from ellprod.curves import WeierstrassCurve

# small, zero and 40-digit coefficients: the packed recurrence of a curve
# unpacks at a width taken from bounds in |A| and |B|, so large ones (and
# a vanishing one) are where a width too small would show
_curve_coefficients = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.just(0),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
)
nonsingular_curves = st.tuples(_curve_coefficients, _curve_coefficients).filter(
    lambda ab: 4 * ab[0] ** 3 + 27 * ab[1] ** 2 != 0).map(
    lambda ab: WeierstrassCurve(*ab))
