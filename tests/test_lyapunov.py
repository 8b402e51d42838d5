"""Parameter selection, Lyapunov/weakened functionals, coercivity, reports."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mkdvlab import lab, lyapunov
from mkdvlab.errors import EigensolveFailure, EmptyAdmissibleInterval, HypothesisViolated
from mkdvlab.functionals import weighted_integrals
from mkdvlab.grid import integrate, make_grid
from mkdvlab.lyapunov import (
    _bordered_operator,
    _certify,
    _form_product,
    _inverse_sqrt_symbol,
    _lanczos,
    _second_variation_weights,
    _start,
    calibrate_slack,
    coercivity_check,
    monotonicity_report,
    select_parameters,
)
from mkdvlab.profiles import (
    Breather,
    Soliton,
    _offset_partials,
    eval_object,
    order_and_validate,
    q_profile,
    shape_pair,
    soliton_eval,
    velocity,
)
from oracles import (
    bordered_form,
    circulant,
    coefficient_positivity,
    dense_certify,
    form_matrix,
    interpolation_inequality_check,
    modulation_directions,
    quadratic_form_H,
    restrict_to_complement,
    restricted_forms,
    spectral_derivative,
    worst_drop,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(50.0, 1024)


def _flagship():
    return order_and_validate(
        [Breather(1.0, 1.0, x2=60.0), Soliton(1.0), Soliton(4.0, x0=60.0)]
    )


def test_select_parameters_flagship_worked_values():
    p = select_parameters(_flagship(), 0.01)
    assert p.nu1 == pytest.approx(0.5)
    assert p.nu == pytest.approx(5.0 / 6.0)
    assert p.nu_prime == pytest.approx(2.0 / 3.0)
    assert p.nu2 == pytest.approx(1.0 / 12.0)
    assert p.nu3 == pytest.approx(1.0 / 12.0)
    assert p.fam.speeds == pytest.approx((0.5, 2.5))
    assert p.fam.sigma == pytest.approx(0.01)


def test_select_parameters_two_solitons_midpoint():
    cfg = order_and_validate([Soliton(1.0), Soliton(4.0, x0=40.0)])
    p = select_parameters(cfg, 0.01)
    # all velocities positive, quadratic constraint inactive: plain midpoint
    assert p.fam.speeds == pytest.approx((2.5,))
    assert p.nu1 == pytest.approx(0.5)


def test_select_parameters_hypothesis_violated():
    cfg = order_and_validate(
        [Breather(1.0, 1.0), Breather(1.2, 1.0, x2=50.0)]
    )
    assert not cfg.positive_v2
    refused = (
        r"^the cutoff audits need a positive second-smallest velocity "
        r"\(sorted velocities: -3\.32, -2\)$"
    )
    with pytest.raises(HypothesisViolated, match=refused):
        select_parameters(cfg, 0.01)
    # with the override, no rightward-moving cutoff can sit below v2 < 0
    with pytest.raises(EmptyAdmissibleInterval):
        select_parameters(cfg, 0.01, override=True)
    # a lone object has no v2, whatever the sign of its own velocity, so only the
    # override lets it through, with no cutoff
    for single in (Breather(1.0, 1.0), Soliton(1.0)):
        v = f"{velocity(single):g}"
        with pytest.raises(HypothesisViolated, match=rf"\(sorted velocities: {v}\)$"):
            select_parameters(order_and_validate([single]), 0.01)
        p = select_parameters(order_and_validate([single]), 0.01, override=True)
        assert 0 < p.nu1 < 1 and p.fam.J == 1


def test_select_parameters_midpoints_for_later_speeds():
    cfg = order_and_validate(
        [Soliton(0.5), Soliton(2.0, x0=30.0), Soliton(5.0, x0=60.0)]
    )
    p = select_parameters(cfg, 0.01)
    assert p.fam.speeds[1] == pytest.approx((2.0 + 5.0) / 2.0)


def test_validate_rejects_tampered_params():
    p = select_parameters(_flagship(), 0.01)
    with pytest.raises(ValueError, match=r"outside \(0,1\)"):
        replace(p, nu1=1.0).validate()


def test_derived_nus_follow_nu1():
    p = replace(select_parameters(_flagship(), 0.01), nu1=0.6)
    assert p.nu2 == p.nu3 == pytest.approx(0.4 / 6.0, abs=1e-14)
    assert p.nu1 + p.nu2 + p.nu3 == pytest.approx(p.nu_prime, abs=1e-14)
    assert p.nu == pytest.approx(0.6 + (2.0 / 3.0) * 0.4, abs=1e-14)


def test_sigma_shrunk_when_first_shape_very_negative():
    # strongly negative b1^2 - a1^2 forces a smaller effective sigma
    cfg = order_and_validate([Breather(2.0, 0.1, x2=40.0), Soliton(1.0)])
    p = select_parameters(cfg, 100.0)
    assert p.fam.sigma < 100.0
    assert coefficient_positivity(p, 1).all_hold


def _weakened(g, u, j, p, t, nu):
    """F_j + 2(b^2-a^2) E_j + nu (a^2+b^2)^2 M_j, written out from the localized
    triple; the Lyapunov functional H_j at nu = 1, the weakened F at nu = p.nu."""
    M, E, F = weighted_integrals(g, u, [p.fam.weight(j, t, g.x)])[0]
    a, b = p.shape(j)
    return F + 2.0 * (b**2 - a**2) * E + nu * (a**2 + b**2) ** 2 * M


def test_lyapunov_H_zero_field(grid):
    p = select_parameters(_flagship(), 0.01)
    zero = np.zeros(grid.n)
    assert _weakened(grid, zero, 1, p, 0.0, 1.0) == 0.0
    assert _weakened(grid, zero, 1, p, 0.0, p.nu) == 0.0


def test_lyapunov_H_single_soliton_composition(grid):
    # a lone object has no cutoff, so its parameters need the override the coercivity kind passes
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01, override=True)
    u = q_profile(1.0, grid.x)
    # j = J = 1: Phi == 1, (a,b) = (0,1), localized mass int u^2 = 2 * mass
    m2, E, F = weighted_integrals(grid, u, (1.0,))[0]
    expected = F + 2.0 * E + m2
    assert _weakened(grid, u, 1, p, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_lyapunov_dominates_weakened(grid):
    p = select_parameters(_flagship(), 0.01)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = np.exp(-(grid.x**2) / 16) * rng.standard_normal(grid.n)
        diff = _weakened(grid, u, 1, p, 0.3, 1.0) - _weakened(grid, u, 1, p, 0.3, p.nu)
        assert diff >= -1e-12


def test_quadratic_form_zero_and_homogeneity(grid):
    p = select_parameters(_flagship(), 0.01)
    zero = np.zeros(grid.n)
    prof = soliton_eval(Soliton(1.0), 0.0, grid.x)
    assert quadratic_form_H(grid, zero, prof, 2, p, 0.0) == 0.0
    rng = np.random.default_rng(8)
    w = np.exp(-(grid.x**2) / 25) * rng.standard_normal(grid.n)
    assert quadratic_form_H(grid, 2.0 * w, prof, 2, p, 0.0) == pytest.approx(
        4.0 * quadratic_form_H(grid, w, prof, 2, p, 0.0), rel=1e-12
    )


def test_quadratic_form_free_field_reduction(grid):
    # zero profile with the identity weight: only the three Sobolev terms
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01, override=True)
    zero_prof = np.zeros(grid.n)
    rng = np.random.default_rng(9)
    w = np.exp(-(grid.x**2) / 25) * rng.standard_normal(grid.n)
    wx = spectral_derivative(grid, w, 1)
    wxx = spectral_derivative(grid, w, 2)
    a, b = 0.0, 1.0
    expected = (
        0.5 * integrate(grid, wxx**2)
        + (b**2 - a**2) * integrate(grid, wx**2)
        + 0.5 * (a**2 + b**2) ** 2 * integrate(grid, w**2)
    )
    assert quadratic_form_H(grid, w, zero_prof, 1, p, 0.0) == pytest.approx(
        expected, rel=1e-12
    )


@pytest.mark.parametrize("obj", [Soliton(1.0), Breather(1.0, 1.0)], ids=["soliton", "breather"])
def test_form_matrix_matches_quadratic_form_H(obj):
    # the eigencheck's product by W A W and quadratic_form_H share their weights:
    # y^T (W A W y) is the form at w = W y
    g = make_grid(25.0, 256)
    p = select_parameters(order_and_validate([obj]), 0.01, override=True)
    prof = eval_object(obj, 0.0, g.x)
    weights = _second_variation_weights(prof, p.fam.weight(1, 0.0, g.x), *shape_pair(obj), g)
    rng = np.random.default_rng(11)
    w = np.exp(-(g.x**2) / 25) * rng.standard_normal(g.n)
    y = np.fft.irfft(np.fft.rfft(w) / _inverse_sqrt_symbol(g), g.n)
    form = quadratic_form_H(g, w, prof, 1, p, 0.0)
    assert y @ _form_product(weights, g)(y) == pytest.approx(form, rel=1e-12)


OBJECTS = [Soliton(1.0), Soliton(4.0), Breather(1.0, 1.0)]
OBJECT_IDS = ["c1", "c4", "breather"]


def _dense_form(weights, g):
    """The matrix of h int (c2 w_xx^2 + c1 w_x^2 + c0 w^2) from dense derivative matrices."""
    c2, c1, c0 = weights
    d1, d2 = circulant(g, g.d1_symbol), circulant(g, g.d2_symbol)
    return g.h * ((d2.T * c2) @ d2 + (d1.T * c1) @ d1 + np.diag(c0))


def _original_pencil(obj, p, g):
    """(A, B, P): the untransformed forms of the coercivity check, from dense products."""
    phi = p.fam.weight(1, 0.0, g.x)
    pv = eval_object(obj, 0.0, g.x)
    A = _dense_form(_second_variation_weights(pv, phi, *shape_pair(obj), g), g)
    return A, _dense_form((phi, phi, phi), g), pv * np.sqrt(phi)


def _null_space_pencil(obj, p, g):
    """The original pencil on scipy's orthonormal basis of the modulation directions' complement."""
    A, B, pen = _original_pencil(obj, p, g)
    basis = scipy.linalg.null_space(modulation_directions(obj, (), 0.0, g))
    return basis.T @ A @ basis, basis.T @ B @ basis, basis.T @ pen


@pytest.mark.parametrize("n", [256, 1024])
def test_inverse_sqrt_symbol_maps_the_h2_form_to_the_identity(n):
    # W B W = I for the dense B of h int (w_xx^2 + w_x^2 + w^2); the largest entry
    # of W B W - I measured 1.1e-12 at n = 256 and 1.8e-10 at n = 1024 (B's
    # condition number grows like n^4), so the bound 1e-8 has a margin above 50
    g = make_grid(20.0, n)
    ones = np.ones(n)
    W = circulant(g, _inverse_sqrt_symbol(g))
    assert np.max(np.abs(W @ _dense_form((ones, ones, ones), g) @ W - np.eye(n))) < 1e-8


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_form_matrix_matches_dense_products(obj):
    # the FFT product, applied to the rows of the identity, and the oracle's
    # assembly by row blocks against W A W from dense products, with W = B^-1/2
    # taken from the eigendecomposition of the dense B rather than from its
    # symbol; the largest entry differed by at most 5.6e-12 of the largest
    # (c = 4, both), a margin of 18 under the bound 1e-10
    obj, p, g = lab._coercivity_setup(obj, 0.01, 256)
    A, B, _ = _original_pencil(obj, p, g)
    lam, Q = np.linalg.eigh(B)
    W = (Q / np.sqrt(lam)) @ Q.T
    ref = W @ A @ W
    phi = p.fam.weight(1, 0.0, g.x)
    weights = _second_variation_weights(eval_object(obj, 0.0, g.x), phi, *shape_pair(obj), g)
    for A in (_form_product(weights, g)(np.eye(g.n)), form_matrix(weights, g, np.empty((g.n, g.n)))):
        assert np.max(np.abs(A - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [512, 1024])
def test_form_matrix_blocks_keep_the_bits(n):
    # the oracle's assembly by row blocks from circulant views against all rows at once
    # from dense circulants: each row's transforms and sums are the same, and
    # 0.5 (a + b) = 0.5 (b + a) exactly, so not one bit may move
    obj = Breather(1.0, 1.0)
    obj, p, g = lab._coercivity_setup(obj, 0.01, n)
    weights = _second_variation_weights(
        eval_object(obj, 0.0, g.x), p.fam.weight(1, 0.0, g.x), *shape_pair(obj), g
    )
    r = _inverse_sqrt_symbol(g)
    spec = 0.0
    for sym, c in zip((g.d2_symbol * r, g.d1_symbol * r, r), weights):
        spec = spec + sym * np.fft.rfft(np.array(circulant(g, sym)) * c)
    A = g.h * np.fft.irfft(spec, g.n)
    assert np.array_equal(form_matrix(weights, g, np.empty((n, n))), 0.5 * (A + A.T))


def _operator_matrix(obj, g):
    """The bordered matrix [[Ar, b], [b^T, 0]] of the check's operator, from its
    products with the rows of the identity."""
    pv, dirs, _ = _offset_partials(obj, (), 0.0, g.x)
    weights = _second_variation_weights(pv, 1.0, *shape_pair(obj), g)
    product, b = _bordered_operator(weights, pv, dirs, g)
    Ar = np.array([product(e) for e in np.eye(len(b))])
    return np.block([[Ar, b[:, None]], [b[None, :], np.zeros((1, 1))]])


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_reflector_restriction_matches_null_space_basis(obj):
    # the transformed, reflector-restricted operator against the original pencil
    # on a null-space basis: the coordinates differ by an invertible map T with
    # Br = T^T T, so the eigenvalues agree, and so do pr^T Br^-1 pr and
    # pr^T Br^-1 Ar Br^-1 pr, which the transformed problem reads as |pr|^2 and
    # pr^T Ar pr.  They differed by at most 7.9e-13 (eigenvalues) and 2.5e-11
    # (relative, c = 1), margins of 126 and 4 under the bounds.  The operator's
    # matrix, from its products, is the oracle's assembled and reflected one to
    # 6.4e-16 of its largest entry (c = 1), a margin of 150 under 1e-13
    obj, p, g = lab._coercivity_setup(obj, 0.01, 256)
    m = len(modulation_directions(obj, (), 0.0, g))
    M = _operator_matrix(obj, g)
    assert M.shape == (g.n - m + 1,) * 2
    ref = restricted_forms(obj, g)
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))
    Ar, pr = M[:-1, :-1], M[-1, :-1] / g.h
    ref_Ar, ref_Br, ref_pr = _null_space_pencil(obj, p, g)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(Ar)[:5],
        scipy.linalg.eigh(ref_Ar, ref_Br, eigvals_only=True, subset_by_index=[0, 4]),
        rtol=0,
        atol=1e-10,
    )
    q = scipy.linalg.solve(ref_Br, ref_pr, assume_a="pos")
    np.testing.assert_allclose([pr @ pr, pr @ Ar @ pr], [ref_pr @ q, q @ ref_Ar @ q], rtol=1e-10)


def test_restriction_to_complement_on_random_data():
    # the oracle's reflectors against scipy's null-space basis, with a border vector with a component along the directions, which the profiles'
    # own penalty vectors (orthogonal to their derivatives) never have
    rng = np.random.default_rng(4)
    n = 64
    V = rng.standard_normal((n, 2))
    M = rng.standard_normal((n, n))
    X = M + M.T
    vec = rng.standard_normal(n)
    basis = scipy.linalg.null_space(V.T)
    ref_X, ref_vec = basis.T @ X @ basis, basis.T @ vec
    bordered = np.block([[X, vec[:, None]], [vec[None, :], np.zeros((1, 1))]])
    out = restrict_to_complement(V, bordered)
    assert out.shape == (n - 1, n - 1) and out[-1, -1] == 0.0
    Xr, vr = out[:-1, :-1], out[-1, :-1]
    np.testing.assert_allclose(np.linalg.eigvalsh(Xr), np.linalg.eigvalsh(ref_X), atol=1e-12)
    np.testing.assert_allclose(
        [vr @ vr, vr @ Xr @ vr], [ref_vec @ ref_vec, ref_vec @ ref_X @ ref_vec], rtol=1e-12
    )


def test_coercivity_soliton_small_grid():
    g = make_grid(25.0, 256)
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01, override=True)
    res = coercivity_check(cfg.objects[0], p, 1, g)
    assert res.mu > 0


def test_coercivity_refuses_a_cutoff_index_below_J():
    # the symbol reduction needs Phi_j = 1, which holds for j = J only: the
    # flagship's J = 3 parameters at j = 1 carry a genuine cutoff
    p = select_parameters(_flagship(), 0.01)
    assert p.fam.J == 3
    with pytest.raises(ValueError, match="j = J"):
        coercivity_check(Breather(1.0, 1.0), p, 1, make_grid(20.0, 256))


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_coercivity_mu_matches_per_mu_eigensolves(obj):
    # mu* brackets the sign change of lambda_min(mu) - mu, lambda_min(mu) the
    # smallest eigenvalue of scipy's penalized pencil on the null-space basis, on
    # the re-centred grid of the coercivity kind.  At mu*(1 -+ 1e-6) it measured
    # +-2.7e-8 to +-9.5e-8, of the expected size mu* 1e-6 (1 - dlambda_min/dmu)
    for n in (256, 512):
        obj, p, g = lab._coercivity_setup(obj, 0.01, n)
        Ar, Br, pr = _null_space_pencil(obj, p, g)
        mu = coercivity_check(obj, p, 1, g).mu
        gaps = []
        for m in (mu * (1 - 1e-6), mu * (1 + 1e-6)):
            pencil = Ar + (g.h**2 / m) * np.outer(pr, pr)
            lam = scipy.linalg.eigh(pencil, Br, eigvals_only=True, subset_by_index=[0, 0])[0]
            gaps.append(lam - m)
        assert gaps[0] > 0 > gaps[1]


def _secular_mu(lam, z2, h):
    """mu* by bisection on the secular equation, an oracle for the bordered eigenvalue.

    mu* is the largest mu with D + s z z^T >= 0, s = h^2/mu, D = diag(lam - mu), lam
    ascending.  Its eigenvalues interlace those of D, so mu <= lam[0] passes and
    mu > lam[1] fails.  In between, det(D + s z z^T) = det(D) (1 + s z^T D^-1 z)
    (Golub, SIAM Rev. 15, 1973) makes the test mu + h^2 sum z_i^2 / (lam_i - mu) <= 0,
    whose left side increases there, so mu* is its root (Bunch, Nielsen & Sorensen,
    Numer. Math. 31, 1978).  Below n eps max|lam| it reads 0, as the check's does.
    """
    floor = len(lam) * np.finfo(float).eps * np.max(np.abs(lam))
    lo, hi = max(float(lam[0]), 0.0), float(lam[1])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid + h**2 * np.sum(z2 / (lam - mid)) <= 0:
            lo = mid
        else:
            hi = mid
    return lo if lo >= floor else 0.0


def _secular_oracle(M, h):
    """_secular_mu on the eigendecomposition of the bordered matrix's leading block."""
    lam, Y = np.linalg.eigh(M[:-1, :-1])
    return _secular_mu(lam, (Y.T @ (M[-1, :-1] / h)) ** 2, h), lam[0]


@pytest.mark.parametrize(
    "obj, n",
    [(o, n) for n in (256, 512, 1024) for o in OBJECTS],
    ids=[f"{i}-{n}" for n in (256, 512, 1024) for i in OBJECT_IDS],
)
def test_coercivity_matches_scipy_generalized_eigh(obj, n):
    # scipy's LAPACK sygvd on the original pencil, restricted by a null-space
    # basis, as an independent oracle for the symbol reduction, with mu* read by
    # the secular bisection.  lambda_min_raw differed by at most 3.5e-11 at n <= 512
    # and at n = 1024 by 5.5e-10 for the breather, 4.1e-10 for c = 1 and 4.7e-11
    # for c = 4, a margin of 1.8 under the bound 1e-9; that gap is the oracle's:
    # with its dense products accumulated in long double it fell to 3.8e-11 for the
    # breather.  mu* differed by at most 1.5e-10 relative at n <= 512, a margin of
    # 6.6 under 1e-9, and at n = 1024 by 2.2e-9 for the breather, 5.1e-9 for c = 1
    # and 3.1e-10 for c = 4, where the oracle's 5.5e-10 error in the breather's
    # eigenvalues is itself 2.1e-8 of mu*
    obj, p, g = lab._coercivity_setup(obj, 0.01, n)
    Ar, Br, pr = _null_space_pencil(obj, p, g)
    lam, Q = scipy.linalg.eigh(Ar, Br)
    res = coercivity_check(obj, p, 1, g)
    assert abs(res.lambda_min_raw - lam[0]) < 1e-9
    ref = _secular_mu(lam, (Q.T @ pr) ** 2, g.h)
    assert res.mu == pytest.approx(ref, rel=1e-9 if n <= 512 else 1e-8)
    assert res.mu > 0


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_bordered_eigenvalue_matches_secular_bisection(obj):
    # the check's theta_1 from Lanczos against the secular root of the oracle's
    # assembled bordered matrix, from its eigendecomposition: mu* differed by at most
    # 8.0e-14 relative (the breather at n = 256), a margin of 12 under 1e-12, and
    # lambda_min_raw by at most 3.5e-15, a margin of 28 under 1e-13
    for n in (256, 512):
        obj, p, g = lab._coercivity_setup(obj, 0.01, n)
        ref_mu, ref_lam = _secular_oracle(restricted_forms(obj, g), g.h)
        res = coercivity_check(obj, p, 1, g)
        assert res.mu == pytest.approx(ref_mu, rel=1e-12) and res.mu > 0
        assert abs(res.lambda_min_raw - ref_lam) < 1e-13


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_unconstrained_form_certifies_nothing(obj):
    # without the orthogonality constraints at least two eigenvalues of the bare
    # form W A W lie within round-off of 0 or below (dense, at n = 256: -3.5e-16 and
    # -9.8e-17 for c = 1, -9.7e-8 and 1.2e-7 for the under-resolved c = 4, -0.18,
    # -1.2e-6 and 6e-10 for the breather), and the rank-one penalty W P lifts at
    # most one of them.  theta_1 of the bare bordered matrix is round-off or below
    # (at n = 512: 4.4e-16 for c = 1, 1.9e-15 for c = 4, 2.4e-16 for the breather),
    # so without the noise floor n eps max|lam| (1.4e-13 to 2.3e-12 there) mu* would
    # be positive.  Lanczos on the bare operator reads theta_1 between -3.1e-16 and
    # 4.4e-16 at n = 512, and the dense eigensolves and the secular bisection of the
    # oracle's matrix agree that nothing is certified
    for n in (256, 512):
        obj, _, g = lab._coercivity_setup(obj, 0.01, n)
        pv = eval_object(obj, 0.0, g.x)
        weights = _second_variation_weights(pv, 1.0, *shape_pair(obj), g)
        res = _certify(*_bordered_operator(weights, pv, (), g))
        assert res.lambda_min_raw <= 1e-6
        assert res.mu == 0.0
        M = bordered_form(obj, pv, g)
        assert dense_certify(M).mu == 0.0
        assert _secular_oracle(M, g.h)[0] == 0.0


@pytest.mark.parametrize("J", [1, 2, 3])
def test_bordered_inertia_rule_on_random_data(J):
    # M = [[Ar, h P], [h P^T, 0_J]] with a rank-J penalty: Haynsworth's inertia
    # formula makes (0, theta_J] the certified set, theta_J M's (J+1)-th smallest
    # eigenvalue, so lambda_min(Ar + (h^2/mu) P P^T) - mu changes sign there.  Ar has
    # J negative eigenvalues and P nearly spans their eigenvectors.  For J = 1, 2, 3,
    # 11, 8 and 7 of the 20 cases have theta_J > 0, where the gaps at
    # theta_J (1 -+ 1e-6) measured at least 1.0e-6 theta_J in size (1.2e-9 or more);
    # in the others no mu > 0 passes (gaps -0.028 or below at mu = 1e-6, 1e-3 and 1)
    rng = np.random.default_rng(16 + J)
    n = 40
    positive = 0
    for _ in range(20):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = np.sort(rng.uniform(0.1, 2.0, n))
        lam[:J] = -rng.uniform(0.1, 1.0, J)
        Ar = (Q * lam) @ Q.T
        P = Q[:, :J] @ rng.standard_normal((J, J)) + 0.1 * rng.standard_normal((n, J))
        h = rng.uniform(0.05, 0.5)
        theta = np.linalg.eigvalsh(np.block([[Ar, h * P], [h * P.T, np.zeros((J, J))]]))[J]

        def gap(mu):
            return np.linalg.eigvalsh(Ar + (h**2 / mu) * P @ P.T)[0] - mu

        if theta > 0:
            positive += 1
            assert gap(theta * (1 - 1e-6)) >= 0 > gap(theta * (1 + 1e-6))
        else:
            assert all(gap(mu) < 0 for mu in (1e-6, 1e-3, 1.0))
    assert 0 < positive < 20


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_coercivity_check_evaluates_its_profile_once(obj, monkeypatch):
    # one _offset_partials call at t = 0 gives the penalty vector P, which has
    # the bits of eval_object, and the modulation directions
    calls = []
    partials = lyapunov._offset_partials

    def counted(o, shifts, t, x):
        calls.append((shifts, t))
        return partials(o, shifts, t, x)

    monkeypatch.setattr(lyapunov, "_offset_partials", counted)
    monkeypatch.setattr(lyapunov, "eval_object", None)
    obj, p, g = lab._coercivity_setup(obj, 0.01, 256)
    assert coercivity_check(obj, p, 1, g).mu > 0
    assert calls == [((), 0.0)]


def test_coercivity_check_holds_one_matrix():
    # the check holds no n x n array: at n = 1024 its traced peak measured 1.5 MB,
    # most of it the Lanczos basis, against 11.8 MB when it assembled the 8.4 MB
    # bordered matrix, so the bound 3 MB fails any n x n array of floats
    obj, p, g = lab._coercivity_setup(Breather(1.0, 1.0), 0.01, 1024)
    tracemalloc.start()
    try:
        coercivity_check(obj, p, 1, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_lanczos_sees_the_odd_eigenvector_that_an_even_start_misses():
    # a synthetic operator on a periodic grid of 128 points that commutes with the
    # reflection j -> -j, as a centred profile's form does: its eigenvectors are the
    # even cosines and the odd sines, the lowest (-1) a sine, the lowest even
    # eigenvalue 0.5.  Its product keeps each parity exactly, as exact arithmetic
    # would, so started at an even border vector the Krylov space stays even and
    # never reaches -1; the fixed start has both parities and finds it
    N = 128
    j = np.arange(N)
    R = -j % N
    modes = [np.cos(2 * np.pi * k * j / N) for k in range(N // 2 + 1)]
    modes += [np.sin(2 * np.pi * k * j / N) for k in range(1, N // 2)]
    U = np.array([v / np.linalg.norm(v) for v in modes]).T
    lam = np.linspace(1.0, 2.0, N)
    lam[0], lam[N // 2 + 1] = 0.5, -1.0  # the constant and sin(2 pi j / N)
    A = (U * lam) @ U.T
    assert np.allclose(A, A[R][:, R], atol=1e-14)

    def product(v):
        even, odd = A @ (0.5 * (v + v[R])), A @ (0.5 * (v - v[R]))
        return 0.5 * (even + even[R]) + 0.5 * (odd - odd[R])

    border = np.exp(-np.minimum(j, N - j) ** 2 / 50.0)
    assert np.array_equal(border, border[R])
    assert _lanczos(product, _start(N), (0,))[0] == pytest.approx(-1.0, abs=1e-12)
    assert _lanczos(product, border, (0,))[0] == pytest.approx(0.5, abs=1e-12)


def test_lanczos_raises_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(lyapunov, "LANCZOS_MAX_ITERS", 5)
    A = np.diag(np.linspace(0.0, 1.0, 50))
    with pytest.raises(EigensolveFailure, match="in 5 iterations"):
        _lanczos(lambda v: A @ v, _start(50), (0,))


def test_lanczos_reports_a_failed_tridiagonal_eigensolve(monkeypatch):
    # LAPACK's syevd raises LinAlgError when it does not converge
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    A = np.diag(np.linspace(0.0, 1.0, 50))
    with pytest.raises(EigensolveFailure, match="did not converge"):
        _lanczos(lambda v: A @ v, _start(50), (0,))


def test_coercivity_rejects_oversized_grid():
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01, override=True)
    with pytest.raises(ValueError):
        coercivity_check(cfg.objects[0], p, 1, make_grid(100.0, 8192))


def _trips(g, p, times, rows):
    """The (T, J-1, 3) localized integrals that monotonicity_report audits: the rows
    Phi_1..Phi_{J-1} of each snapshot, as Scenario.integrals weighs them."""
    js = range(1, p.fam.J)
    return np.array(
        [weighted_integrals(g, u, [p.fam.weight(j, t, g.x) for j in js]) for t, u in zip(times, rows)]
    )


def test_monotonicity_zero_trajectory(grid):
    p = select_parameters(_flagship(), 0.01)
    times = np.array([0.0, 1.0, 2.0])
    trips = _trips(grid, p, times, np.zeros((3, grid.n)))
    values, slack, drops = monotonicity_report(trips, times, p, varpi=0.0, C=0.0)
    # axes: snapshot time, cutoff index j = 1..J-1, (M_j, weakened F_j)
    assert values.shape == (3, p.fam.J - 1, 2)
    assert drops.shape == (p.fam.J - 1, 2)
    assert np.array_equal(values, np.zeros(values.shape))
    assert np.array_equal(drops, np.zeros(drops.shape))


def test_monotonicity_flags_synthetic_decrease(grid):
    # a decaying artificial series must register a positive worst_drop
    p = select_parameters(_flagship(), 0.01)
    values = np.array([amp * q_profile(1.0, grid.x + 45.0) for amp in (1.0, 0.9, 0.8)])
    times = np.array([0.0, 1.0, 2.0])
    drops = monotonicity_report(_trips(grid, p, times, values), times, p, varpi=0.0, C=0.0)[2]
    assert drops[0, 0] > 0.1  # j = 1, M_j


def test_monotonicity_report_values_are_the_named_functionals(grid):
    p = select_parameters(_flagship(), 0.01)
    values = np.array([amp * q_profile(1.0, grid.x + 45.0) for amp in (1.0, 0.9)])
    times = np.array([0.0, 1.0])
    report = monotonicity_report(_trips(grid, p, times, values), times, p, varpi=0.0, C=0.0)[0]
    for i, (t, row) in enumerate(zip(times, values)):
        M, E, F = weighted_integrals(grid, row, [p.fam.weight(1, t, grid.x)])[0]
        assert M != 0.0 and E != 0.0 and F != 0.0
        assert report[i, 0, 0] == M
        assert report[i, 0, 1] == _weakened(grid, row, 1, p, t, p.nu)


def test_audit_scan_is_the_pairwise_drop():
    # monotonicity_report's linear running-maximum scan against the pairwise
    # reference, on random walks under a decaying slack, bit for bit.  The
    # stand-in triples make j = 1's M_j the walk and j = 2's weakened F minus it
    p = select_parameters(_flagship(), 0.01)
    rng = np.random.default_rng(13)
    times = np.linspace(0.0, 4.0, 40)
    for _ in range(20):
        walk = rng.standard_normal(len(times)).cumsum()
        trips = np.zeros((len(times), 2, 3))
        trips[:, 0, 0] = walk
        trips[:, 1, 2] = -walk
        values, slack, drops = monotonicity_report(trips, times, p, varpi=0.2, C=0.5)
        assert np.array_equal(values[:, 0, 0], walk)
        assert np.array_equal(values[:, 1, 1], -walk)
        assert list(slack) == [0.5 * np.exp(-0.4 * t) + 1e-5 for t in times]
        for k, w in np.ndindex(drops.shape):
            assert drops[k, w] == worst_drop(list(values[:, k, w]), list(slack))
        assert max(drops[0, 0], drops[1, 1]) > 0.0


def test_interpolation_inequality_zero(grid):
    p = select_parameters(_flagship(), 0.01)
    rep = interpolation_inequality_check(grid, np.zeros(grid.n), p.fam, 1)
    assert rep.holds_quadratic and rep.holds_linear


def test_interpolation_inequality_soliton_at_transition():
    g = make_grid(100.0, 2048)
    p = select_parameters(_flagship(), 0.01)
    u = q_profile(1.0, g.x)  # centered on the j=1 transition
    rep = interpolation_inequality_check(g, u, p.fam, 1)
    assert rep.holds_quadratic and rep.holds_linear
    assert rep.ratio < 1.0


def test_interpolation_inequality_random_fields():
    g = make_grid(100.0, 2048)
    p = select_parameters(_flagship(), 0.01)
    rng = np.random.default_rng(21)
    for _ in range(100):
        coef = rng.standard_normal(6)
        width = rng.uniform(3.0, 12.0)
        x0 = rng.uniform(-30.0, 30.0)
        vals = np.exp(-((g.x - x0) ** 2) / (2 * width**2)) * sum(
            c * np.cos(0.2 * (k + 1) * g.x) for k, c in enumerate(coef)
        )
        rep = interpolation_inequality_check(g, vals, p.fam, 1)
        assert rep.holds_quadratic and rep.holds_linear


def test_coefficient_positivity_flagship_arithmetic():
    p = select_parameters(_flagship(), 0.01)
    rep = coefficient_positivity(p, 1)
    # first shape pair (1,1): first value 3*0 + 3*0.5*2 = 3, fourth
    # (3/2)(5/6)*4 + 0.5*0 - (3/2)(2/3)*4 = 5 - 4 = 1
    assert rep.values[0] == pytest.approx(3.0)
    assert rep.values[3] == pytest.approx(1.0)
    assert rep.all_hold


def test_coefficient_positivity_soliton_trivial():
    cfg = order_and_validate([Soliton(1.0), Soliton(4.0, x0=40.0)])
    p = select_parameters(cfg, 0.01)
    assert coefficient_positivity(p, 1).all_hold


def test_coefficient_positivity_huge_sigma_negative_control():
    cfg = order_and_validate([Breather(2.0, 0.1, x2=40.0), Soliton(1.0)])
    p = select_parameters(cfg, 0.01)
    rep = coefficient_positivity(replace(p, fam=replace(p.fam, sigma=100.0)), 1)
    assert not rep.holds[1] and not rep.holds[2]


def test_validate_rejects_sigma_above_the_first_shape_cap():
    # the negative control's parameters: sigma = 100 breaks c2 and c3 >= 0,
    # which validate rechecks as the first shape's sigma cap
    cfg = order_and_validate([Breather(2.0, 0.1, x2=40.0), Soliton(1.0)])
    p = select_parameters(cfg, 0.01)
    p.validate()
    with pytest.raises(ValueError, match="sigma exceeds the cap"):
        replace(p, fam=replace(p.fam, sigma=100.0)).validate()


_SOLITON = st.builds(Soliton, c=st.floats(0.05, 5.0))
_BREATHER = st.builds(Breather, alpha=st.floats(0.05, 2.0), beta=st.floats(0.05, 2.0))


@settings(max_examples=300, deadline=None)
@given(objects=st.lists(_SOLITON | _BREATHER, min_size=2, max_size=4), log_sigma=st.floats(-4.0, 2.0))
def test_coefficient_positivity_wherever_parameters_are_accepted(objects, log_sigma):
    # the four coefficient inequalities at every cutoff index of every
    # configuration select_parameters accepts: validate enforces them for j = 1,
    # and v_j > 0 makes them hold for j >= 2
    v = sorted(velocity(o) for o in objects)
    assume(all(b - a > 1e-9 for a, b in zip(v, v[1:])))
    cfg = order_and_validate(objects)
    try:
        p = select_parameters(cfg, 10.0**log_sigma)
    except HypothesisViolated:
        assume(False)
    for j in range(1, cfg.J):
        assert coefficient_positivity(p, j).all_hold


def test_calibrate_slack_positive():
    g = make_grid(100.0, 2048)
    cfg = _flagship()
    p = select_parameters(cfg, 0.01)
    varpi, C = calibrate_slack(cfg, p, g)
    assert varpi > 0 and C > 0 and np.isfinite(C)
