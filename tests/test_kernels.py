"""The instrumented dense kernels against scipy's reference routines."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core import _kernels as kr


@pytest.mark.parametrize("trans", [0, 1, 2])
@pytest.mark.parametrize("a_complex", [False, True])
@pytest.mark.parametrize("b_complex", [False, True])
@pytest.mark.parametrize("rhs", [(), (3,), (12,)])
def test_lu_solve_matches_getrs(trans, a_complex, b_complex, rhs):
    rng = np.random.default_rng(7)
    n = 12
    A = rng.standard_normal((n, n))
    if a_complex:
        A = A + 1j * rng.standard_normal((n, n))
    B = rng.standard_normal((n, *rhs))
    if b_complex:
        B = B + 1j * rng.standard_normal((n, *rhs))
    factors = kr.lu_factor(A)
    ref = sla.lu_solve((factors.lu, factors.piv), B, trans=trans)
    got = factors.solve(B, trans=trans)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_singular_factor_solves_to_non_finite():
    """Like getrs, a zero pivot yields inf/nan for the guards to catch,
    never a finite wrong answer."""
    A = np.ones((4, 4))
    with np.errstate(all="ignore"), pytest.warns(sla.LinAlgWarning):
        factors = kr.lu_factor(A)
    with np.errstate(all="ignore"):
        x = factors.solve(np.eye(4))
    assert not np.isfinite(x).all()


@pytest.mark.parametrize("shape", [(200, 100), (8, 8), (9, 4), (3, 5)])
@pytest.mark.parametrize("is_complex", [False, True])
def test_qr_full_against_scipy(shape, is_complex):
    rng = np.random.default_rng(3)
    A = rng.standard_normal(shape)
    if is_complex:
        A = A + 1j * rng.standard_normal(shape)
    Q, R = kr.qr_full(A)
    Qs, Rs = sla.qr(A, mode="full")
    m = shape[0]
    assert Q.shape == Qs.shape and R.shape == Rs.shape
    assert Q.flags.c_contiguous
    assert Q.dtype == A.dtype and R.dtype == A.dtype
    np.testing.assert_allclose(Q @ R, A, atol=1e-12)
    np.testing.assert_allclose(Q.conj().T @ Q, np.eye(m), atol=1e-12)
    np.testing.assert_array_equal(np.tril(R, -1), 0.0)
    # Same Householder reflectors as geqrf: R agrees, not just up to signs.
    np.testing.assert_allclose(R, Rs, atol=1e-12)


@pytest.mark.parametrize("is_complex", [False, True])
def test_triangular_solve(is_complex):
    rng = np.random.default_rng(4)
    R = np.triu(rng.standard_normal((6, 6))) + 4.0 * np.eye(6)
    B = rng.standard_normal((6, 9))
    if is_complex:
        R = R + 1j * np.triu(rng.standard_normal((6, 6)))
        B = B + 1j * rng.standard_normal((6, 9))
    np.testing.assert_allclose(kr.triangular_solve(R, B),
                               sla.solve_triangular(R, B), atol=1e-13)
