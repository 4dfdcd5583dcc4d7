import numpy as np
import pytest

from toruslab import spectral as sp


@pytest.fixture
def geom():
    return sp.TorusGeometry(1.0, 256)


def test_constant_mode(geom):
    f = sp.forward_transform(np.ones(256), geom)
    assert abs(f.coeff(0) - 2.0 * np.pi) < 1e-12
    assert np.max(np.abs(np.delete(f.coeffs, 0))) < 1e-12


def test_single_mode(geom):
    x = geom.xgrid()
    f = sp.forward_transform(np.exp(1j * x), geom)
    assert abs(f.coeff(1) - 2.0 * np.pi) < 1e-12
    others = f.coeffs.copy()
    others[1] = 0.0
    assert np.max(np.abs(others)) < 1e-12


def test_roundtrip_and_parseval(geom):
    rng = np.random.default_rng(0)
    for lam in (1.0, 2.0, 4.0):
        g = sp.TorusGeometry(lam, 256)
        u = sp.random_field(g, rng, band=100)
        back = sp.forward_transform(u.samples(), g)
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12 * np.max(np.abs(u.coeffs))
        # Plancherel: sample-space L2 equals coefficient-space evaluation
        lhs = sp.lebesgue_norm(u.samples(), lam, 2)
        assert abs(lhs - u.l2_norm()) <= 1e-12 * u.l2_norm()
        # Parseval against an independent Riemann sum
        v = sp.random_field(g, rng, band=100)
        dx = g.dx
        pair_x = dx * np.sum(u.samples() * np.conj(v.samples()))
        pair_xi = np.sum(u.coeffs * np.conj(v.coeffs)) / (2.0 * np.pi * lam)
        assert abs(pair_x - pair_xi) <= 1e-12 * abs(pair_xi)


def test_transform_rejects_bad_input(geom):
    with pytest.raises(sp.SizeMismatchError):
        sp.forward_transform(np.ones(128), geom)
    bad = np.ones(256)
    bad[3] = np.nan
    with pytest.raises(sp.NonFiniteDataError):
        sp.forward_transform(bad, geom)


def test_hilbert(geom):
    x = geom.xgrid()
    c = sp.forward_transform(np.cos(x), geom)
    assert np.max(np.abs(sp.hilbert_transform(c).samples() - np.sin(x))) < 1e-12
    const = sp.forward_transform(np.ones(256), geom)
    assert np.max(np.abs(sp.hilbert_transform(const).coeffs)) == 0.0
    # H(H(f)) = -f on mean-zero fields
    rng = np.random.default_rng(1)
    u = sp.random_field(geom, rng, band=80, real=True)
    u = sp.SpectralField(geom, np.where(geom.mvals == 0, 0.0, u.coeffs), real=True)
    hh = sp.hilbert_transform(sp.hilbert_transform(u))
    assert np.max(np.abs(hh.coeffs + u.coeffs)) < 1e-14
    # isometry on mean-zero fields
    assert abs(sp.hilbert_transform(u).l2_norm() - u.l2_norm()) < 1e-14


def test_lp_projection(geom):
    coeffs = np.zeros(256, dtype=complex)
    coeffs[3] = 2.0 * np.pi
    f = sp.SpectralField(geom, coeffs)
    assert np.max(np.abs(sp.lp_project(f, 1).coeffs - f.coeffs)) == 0.0
    assert np.max(np.abs(sp.lp_project(f, 0).coeffs)) == 0.0
    rng = np.random.default_rng(2)
    u = sp.random_field(geom, rng, band=120)
    total = np.zeros_like(u.coeffs)
    for k in range(sp.max_block(geom) + 1):
        pk = sp.lp_project(u, k)
        total = total + pk.coeffs
        for kk in range(k + 1, sp.max_block(geom) + 1):
            overlap = sp.lp_project(pk, kk)
            assert np.max(np.abs(overlap.coeffs)) == 0.0
    assert np.max(np.abs(total - u.coeffs)) == 0.0


def test_sobolev_norm(geom):
    x = geom.xgrid()
    f = sp.forward_transform(np.exp(1j * x), geom)
    for s in (-0.5, 0.0, 0.3, 1.0):
        assert abs(sp.sobolev_norm(f, s) - 2.0 * np.pi * 2.0 ** (s / 2.0)) < 1e-10
    rng = np.random.default_rng(3)
    u = sp.random_field(geom, rng, band=100)
    # brute-force lattice sum oracle
    s = 0.7
    acc = 0.0
    for m, c in zip(geom.mvals, u.coeffs):
        xi = m / geom.lam
        acc += (1.0 + xi * xi) ** s * abs(c) ** 2
    assert abs(sp.sobolev_norm(u, s) - np.sqrt(acc / geom.lam)) < 1e-12
    # s = 0 is the coefficient-space norm: sqrt(2 pi) times the L2 norm
    assert abs(sp.sobolev_norm(u, 0.0) - np.sqrt(2 * np.pi) * u.l2_norm()) < 1e-12


def test_lebesgue_norms():
    g = sp.TorusGeometry(1.0, 256)
    x = g.xgrid()
    assert abs(sp.lebesgue_norm(np.ones(256), 1.0, 2) - np.sqrt(2 * np.pi)) < 1e-12
    assert abs(sp.lebesgue_norm(np.cos(x), 1.0, 2) - np.sqrt(np.pi)) < 1e-12
    assert abs(sp.lebesgue_norm(np.cos(x), 1.0, np.inf) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        sp.lebesgue_norm(np.ones(8), 1.0, 0.5)
    # the last axis is reduced: a stack of rows gives one norm per row
    rows = np.stack([np.ones(256), np.cos(x), np.sin(3 * x)])
    for p in (2, 4, np.inf):
        batched = sp.lebesgue_norm(rows, 1.0, p)
        assert batched.shape == (3,)
        assert all(batched[i] == sp.lebesgue_norm(r, 1.0, p)
                   for i, r in enumerate(rows))
    f = sp.forward_transform(np.cos(x), g)
    assert abs(sp.field_lebesgue_norm(f, 4) - (3 * np.pi / 4) ** 0.25) < 1e-10


def test_bernstein_ratio_bounded():
    from toruslab.bumps import next_pow2

    rng = np.random.default_rng(4)
    gauss, coherent = {}, {}
    for lam in (1.0, 2.0, 4.0):
        for k in range(1, 7):
            g = sp.TorusGeometry(lam, next_pow2(int(8 * 2**k * lam)))
            best = 0.0
            for _ in range(8):
                u = sp.random_field(g, rng, block=k)
                ratio = sp.field_lebesgue_norm(u, np.inf) / (
                    2.0 ** (k / 2.0) * u.l2_norm()
                )
                best = max(best, ratio)
            gauss[(lam, k)] = best
            mask = sp.block_indicator(g.xi, k)
            flat = sp.SpectralField(g, np.where(mask, 1.0 + 0j, 0.0))
            coherent[(lam, k)] = sp.field_lebesgue_norm(flat, np.inf) / (
                2.0 ** (k / 2.0) * flat.l2_norm()
            )
    # scale-invariant Bernstein: ratios bounded uniformly in k and lam,
    # and the coherent (flat-block) saturator sits at a k-independent level
    assert max(gauss.values()) < 1.0 and max(coherent.values()) < 1.0
    cvals = np.array(list(coherent.values()))
    assert np.max(cvals) / np.min(cvals) < 1.3


def test_geometry_validation():
    with pytest.raises(ValueError):
        sp.TorusGeometry(0.5, 256)
    with pytest.raises(ValueError):
        sp.TorusGeometry(1.0, 100)
    for lam in (np.nan, np.inf):  # nan passed a plain `lam < 1` check
        with pytest.raises(ValueError):
            sp.TorusGeometry(lam, 64)


def _direct_cube(c, conjugate_middle, period):
    """Coefficients of u^3 (or u conj(u) u) over |m| <= 3 b by direct triple
    convolution of the coefficient vector c[m + b], |m| <= b."""
    mid = np.conj(c[::-1]) if conjugate_middle else c
    return np.convolve(np.convolve(c, mid), c) / period**2


@pytest.mark.parametrize("conjugate_middle", [False, True])
@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_cubic_coeffs_alias_free(conjugate_middle, lam):
    """At n = 2M with data in |m| <= M/3 every retained mode is exact, and
    at n = 4M with the full band every mode of the cube is."""
    rng = np.random.default_rng(11)
    m_size = 64
    g = sp.TorusGeometry(lam, m_size)
    mv = g.mvals
    for factor, band in ((2, m_size // 3), (4, m_size // 2 - 1)):
        u = sp.random_field(g, rng, band=band)
        n = factor * m_size
        got = sp.cubic_coeffs(u.coeffs, mv % n, n, g.period, conjugate_middle)
        c = np.zeros(2 * band + 1, dtype=complex)
        live = np.abs(mv) <= band
        c[mv[live] + band] = u.coeffs[live]
        want = _direct_cube(c, conjugate_middle, g.period)
        modes = mv if factor == 2 else np.arange(-3 * band, 3 * band + 1)
        err = np.max(np.abs(got[modes % n] - want[modes + 3 * band]))
        assert err <= 1e-12 * np.max(np.abs(want))
