"""Oracles shared by several test modules."""
import pytest


def _exactly_positive_definite(diag, offdiag, shift) -> bool:
    """Is the symmetric tridiagonal T - shift positive definite? Decided in exact integer arithmetic.

    Every float is an integer over a power of two, so scaling by the largest
    denominator S makes every entry an integer. T - shift is positive definite
    exactly when every leading minor D_k is positive (Sylvester's criterion),
    and S^k D_k follows D_k = (a_k - shift) D_{k-1} - e_{k-1}^2 D_{k-2} in
    integers, with no rounding.
    """
    values = [float(v) for v in (*diag, *offdiag, shift)]
    scale = max(v.as_integer_ratio()[1] for v in values)

    def whole(v):
        numerator, denominator = float(v).as_integer_ratio()
        return numerator * (scale // denominator)

    shift, before, minor = whole(shift), 0, 1
    for k, a in enumerate(diag):
        before, minor = minor, (whole(a) - shift) * minor - (whole(offdiag[k - 1]) ** 2 * before if k else 0)
        if minor <= 0:
            return False
    return True


@pytest.fixture(scope="session")
def exactly_positive_definite():
    return _exactly_positive_definite
