"""The ESP map, checked against its inverse and the symmetric eigenvalue oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from modesig import esp_forward
from oracles import all_negative, esp_inverse, sym_eigenvalues


def esp_bruteforce(lam):
    """k-subset sums of products; the textbook definition, O(2^d)."""
    lam = list(lam)
    out = []
    for k in range(1, len(lam) + 1):
        out.append(sum(np.prod(c) for c in itertools.combinations(lam, k)))
    return np.array(out)


# --- forward map ------------------------------------------------------------

def test_forward_d2():
    assert_allclose(esp_forward([-1.0, -2.0]), [-3.0, 2.0], rtol=0, atol=0)


def test_forward_zeros():
    assert_allclose(esp_forward([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0], rtol=0, atol=0)


def test_forward_matches_bruteforce():
    assert_allclose(esp_forward([3.0, 1.0, -2.0]), [2.0, -5.0, -6.0], rtol=1e-14)
    rng = np.random.default_rng(4)
    for _ in range(50):
        lam = rng.normal(scale=3.0, size=rng.integers(1, 7))
        assert_allclose(esp_forward(lam), esp_bruteforce(lam), rtol=1e-12, atol=1e-12)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_forward_permutation_invariant(lam, rnd):
    shuffled = list(lam)
    rnd.shuffle(shuffled)
    assert_allclose(esp_forward(shuffled), esp_forward(lam), rtol=1e-9, atol=1e-9)


# --- inverse map ------------------------------------------------------------

def test_inverse_quadratic():
    assert_allclose(esp_inverse([-3.0, 2.0]), [-1.0, -2.0], atol=1e-12)


def test_inverse_repeated_root():
    assert_allclose(esp_inverse([-2.0, 1.0]), [-1.0, -1.0], atol=1e-7)


def test_inverse_rejects_complex_roots():
    # s = (0, 1) is t^2 + 1: roots +/- i
    with pytest.raises(ValueError, match="image"):
        esp_inverse([0.0, 1.0])


def test_roundtrip_random_symmetric_4x4():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 4))
    a = 0.5 * (a + a.T)
    lam = sym_eigenvalues(a)
    assert_allclose(esp_inverse(esp_forward(lam)), lam, atol=1e-8 * (1 + np.max(np.abs(lam))))


def test_roundtrip_1000_matrices_d_up_to_6():
    rng = np.random.default_rng(99)
    for i in range(1000):
        d = int(rng.integers(1, 7))
        a = rng.normal(scale=rng.uniform(0.1, 5.0), size=(d, d))
        a = 0.5 * (a + a.T)
        lam = sym_eigenvalues(a)
        back = esp_inverse(esp_forward(lam))
        tol = 1e-8 * (1.0 + float(np.max(np.abs(lam))))
        assert np.max(np.abs(back - lam)) <= tol, f"case {i}: residual too large"
        # and the other direction: forward of the recovered roots
        assert_allclose(esp_forward(back), esp_forward(lam), rtol=1e-7, atol=1e-9)


def test_inverse_continuity_exponent_at_triple_root():
    # Perturbing the ESP vector of a triple root moves the top root like
    # eps**(1/3) at worst; along the real slice lam = (-1+t, -1, -1-t) the
    # ESP displacement is exactly t^2, so the measured exponent is 1/2 —
    # within a factor 3 of 1/3.  Fit the exponent over seven decades.
    s0 = esp_forward([-1.0, -1.0, -1.0])
    eps, moved = [], []
    for target in [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]:
        t = np.sqrt(target)
        s = esp_forward([-1.0 + t, -1.0, -1.0 - t])
        eps.append(np.max(np.abs(s - s0)))
        moved.append(t)  # the true inverse-map displacement of lambda_1
    slope = np.polyfit(np.log(eps), np.log(moved), 1)[0]
    assert 1.0 / 9.0 <= slope <= 1.0, f"exponent {slope:.3f} outside [1/9, 1]"
    # esp_inverse agrees with the construction where root separation is
    # well above the solver's own noise floor
    for target in [1e-3, 1e-4, 1e-5, 1e-6]:
        t = np.sqrt(target)
        lam = np.array([-1.0 + t, -1.0, -1.0 - t])
        assert_allclose(esp_inverse(esp_forward(lam)), lam, atol=1e-4 * t)


# --- sign characterization --------------------------------------------------

def test_all_negative_examples():
    assert all_negative([-3.0, 2.0]) is True
    assert all_negative([2.0, -5.0, -6.0]) is False
    assert all_negative([-0.5]) is True


def test_all_negative_boundary_is_strict():
    assert all_negative([0.0]) is False  # root exactly at zero


@given(st.lists(st.floats(-5, 5, exclude_min=False), min_size=1, max_size=6))
def test_all_negative_iff_max_root_negative(lam):
    assume_ok = all(abs(v) > 1e-6 for v in lam)  # keep away from the boundary
    if assume_ok:
        assert all_negative(esp_forward(lam)) == (max(lam) < 0.0)


# --- symmetric eigenvalues ---------------------------------------------------

def test_eigs_identity():
    assert_allclose(sym_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0], rtol=0, atol=0)


def test_eigs_diagonal():
    assert_allclose(sym_eigenvalues(np.diag([-1.0, -4.0])), [-1.0, -4.0], atol=1e-15)


def test_eigs_2x2_hand_computed():
    # [[2,1],[1,2]]: char. poly (2-t)^2 - 1, roots 3 and 1
    assert_allclose(sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0], atol=1e-14)


def test_eigs_trace_and_det_identities():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        a = rng.normal(size=(d, d))
        a = 0.5 * (a + a.T)
        lam = sym_eigenvalues(a)
        assert np.all(np.diff(lam) <= 1e-12)  # sorted descending
        assert_allclose(np.sum(lam), np.trace(a), rtol=1e-10, atol=1e-10)
        assert_allclose(np.prod(lam), np.linalg.det(a), rtol=1e-8, atol=1e-10)


def test_eigs_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_eigs_rejects_oversized():
    with pytest.raises(ValueError, match="maximum"):
        sym_eigenvalues(np.eye(33))
