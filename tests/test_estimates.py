import numpy as np
import pytest

from toruslab import bumps, estimates as es, spacetime as st
from toruslab.evolution import BENJAMIN_ONO, SCHROEDINGER
from toruslab.spectral import TorusGeometry


def window_grid(cfg, s):
    """Time step and window centers of the factor window constant of slot s."""
    k = cfg.ks[s]
    half_env = bumps.OUTER * cfg.env_scale
    dt = min(2.0**-k, cfg.env_scale) / 32.0
    step = 2.0**-k / 4.0
    ncent = int(np.ceil(2.0 * (half_env + 2.0**-k) / step)) + 1
    return dt, -half_env - 2.0**-k + step * np.arange(ncent)


def oracle_window_constant(cfg, s, theta=0.0):
    """Reference factor window constant: one zero-padded FFT and one weighted
    sum per window center and annulus (the loop the batched reduction of
    TrilinearConfig.factor_window_constant replaced)."""
    k = cfg.ks[s]
    half_win = bumps.OUTER * 2.0**-k
    dt, centers = window_grid(cfg, s)
    best = 0.0
    for c in centers:
        t = np.arange(c - half_win, c + half_win + dt / 2, dt)
        w = cfg.envelope(t) * bumps.eta0(2.0**k * (t - c))
        if not np.any(w):
            continue
        npad = bumps.next_pow2(
            max(4 * t.size, int(2.0 * np.pi * 32.0 / (2.0**k * dt)))
        )
        what = np.fft.fft(w.astype(complex), npad) * dt
        sig = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
        dsig = 2.0 * np.pi / (npad * dt)
        power = dsig * np.abs(what) ** 2
        smax = float(np.max(np.abs(sig))) + abs(theta)
        jmax = bumps.max_resolved_j(smax)
        total = 0.0
        for j in range(jmax + 1):
            wj = bumps.eta_j(sig + theta, j)
            blockv = float(np.sum(wj * wj * power))
            if blockv > 0.0:
                total += 2.0 ** (j * 0.5) * np.sqrt(blockv)
        best = max(best, total)
    return best


def test_fit_exponent():
    s, i, r = es.fit_exponent([(n, -0.5 * n + 3.0) for n in range(3, 9)])
    assert abs(s + 0.5) < 1e-12 and r < 1e-12
    s, i, r = es.fit_exponent([(n, 2.0) for n in range(5)])
    assert abs(s) < 1e-12
    rng = np.random.default_rng(0)
    pts = [(n, -0.5 * n + 3 + 0.05 * rng.standard_normal()) for n in range(3, 9)]
    s, i, r = es.fit_exponent(pts)
    assert abs(s + 0.5) < 0.05
    with pytest.raises(ValueError):
        es.fit_exponent([(1.0, 2.0), (2.0, 3.0)])


def test_report_verdict_pure():
    pts = [es.RatioPoint(float(n), 1.0, 2.0 ** (-0.5 * n), 2.0 ** (-0.5 * n))
           for n in (3, 4, 5)]
    rep = es.make_report("x", pts, -0.5, 0.15)
    assert rep.verdict
    rep2 = es.make_report("x", pts, 0.0, 0.15)
    assert not rep2.verdict


def test_ensemble_determinism_and_support():
    ens = es.Ensemble(seed=7, count=4, block=3)
    a = ens.sample(2)
    b = ens.sample(2)
    assert np.array_equal(a.coeffs, b.coeffs)
    from toruslab.spectral import block_indicator

    nz = np.abs(a.coeffs) > 0
    assert np.all(block_indicator(a.geometry.xi[nz], 3))
    assert abs(a.l2_norm() - 1.0) < 1e-12


def test_grid_operator():
    assert abs(es.smoothing_grid_operator_norm(2) - 1.0) < 1e-12
    ns = [4, 8, 16, 32, 64, 128, 256]
    vals = [es.smoothing_grid_operator_norm(n) for n in ns]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert max(v / np.log2(n) for v, n in zip(vals, ns)) <= 5.0
    with pytest.raises(ValueError):
        es.smoothing_grid_operator_norm(1)


def test_admissibility():
    assert es.admissible(np.inf, 2)
    assert es.admissible(6, 6)
    assert es.admissible(8, 4)
    assert not es.admissible(4, np.inf)
    with pytest.raises(ValueError):
        es.strichartz_ratio(4, np.inf, [3, 4, 5], count=2)


def test_unitary_pair_ratio_one():
    rep = es.strichartz_ratio(np.inf, 2, [3, 4, 5], count=3, seed=1)
    for p in rep.points:
        assert abs(p.max_ratio - 1.0) < 1e-10
    assert rep.verdict


def test_l6_strichartz_slope():
    rep = es.strichartz_ratio(6, 6, [3, 4, 5, 6, 7], count=6, seed=1)
    assert abs(rep.slope) <= 0.1
    assert rep.verdict


def test_bilinear():
    with pytest.raises(ValueError):
        es.bilinear_ratio([4], 1, count=2)  # n - k < 4
    rep = es.bilinear_ratio([5, 6, 7], 1, count=6, seed=2)
    assert abs(rep.slope) <= 0.15  # normalized by 2^(-n/2): raw -1/2
    # scale invariance: max ratio varies mildly across lambda at fixed n
    vals = []
    for lam in (1.0, 2.0, 4.0):
        r = es.bilinear_ratio([6, 7, 8], 1, lam=lam, count=4, seed=3)
        vals.append(r.points[0].max_ratio)
    assert max(vals) / min(vals) <= 1.25
    # conjugated variant behaves the same
    rep_c = es.bilinear_ratio([5, 6, 7], 1, count=4, seed=2, conjugated=True)
    assert abs(rep_c.slope) <= 0.15
    # separation-only mode
    rep_s = es.bilinear_ratio([4, 5, 6], 1, count=4, seed=2, separated=True)
    assert abs(rep_s.slope) <= 0.2


def test_zero_factor_skipped():
    pts = [es.RatioPoint(1.0, 1.0, np.nan, np.nan)]
    mx, mean, kept = es._ensemble_ratios([0.0, np.nan])
    assert kept == 0


def test_maximal():
    rep = es.maximal_ratio([3, 4, 5, 6], count=6, seed=3)
    assert abs(rep.slope) <= 0.15  # normalized by 2^(n/4): raw +1/4
    # single mode: closed-form ratio
    from toruslab.spectral import SpectralField, TorusGeometry

    g = TorusGeometry(1.0, 128)
    c = np.zeros(128, dtype=complex)
    c[9] = 1.0
    u0 = SpectralField(g, c)
    l4, li = es._maximal_smoothing_values(u0, SCHROEDINGER, 3, 1.0)
    want = (2.0 * np.pi) ** 0.25 / u0.l2_norm() / (2.0 * np.pi) ** 0.5 * u0.l2_norm()
    assert abs(l4 / u0.l2_norm() - (2 * np.pi) ** 0.25 / (2 * np.pi) ** 0.5) < 1e-6
    # interval dependence: longer window cannot shrink the sup ratio
    short = es.maximal_ratio([4, 5, 6], count=3, seed=4).points
    longer = es.maximal_ratio([4, 5, 6], count=3, seed=4, interval_factor=4.0).points
    for a, b in zip(short, longer):
        assert b.max_ratio >= a.max_ratio * 0.999


def test_smoothing():
    rep = es.smoothing_ratio([3, 4, 5, 6], count=6, seed=4)
    assert abs(rep.slope) <= 0.1
    # positive-frequency-only data behaves comparably
    pos = es.smoothing_ratio([4, 5, 6], count=4, seed=4, positive_only=True)
    both = es.smoothing_ratio([4, 5, 6], count=4, seed=4)
    for a, b in zip(pos.points, both.points):
        assert 0.3 <= a.max_ratio / b.max_ratio <= 3.0
    # against the proof-side log weight the ratios never grow
    logrep = es.smoothing_ratio([3, 4, 5, 6], count=4, seed=4, log_normalized=True)
    assert logrep.slope <= 0.1


def test_l4_modulation():
    rep = es.l4_modulation_ratio([0, 1, 2, 3, 4, 5, 6], count=6, seed=5)
    assert abs(rep.slope) <= 0.1


def test_conjugation_reflection_identity():
    """Conjugating the data reflects the time interval exactly: the ratio of
    conj(u0) over [0, d] equals the ratio of u0 over [-d, 0]."""
    from toruslab.spectral import SpectralField

    ens = es.Ensemble(seed=6, count=1, block=4)
    u0 = ens.sample(0)
    ubar = SpectralField(u0.geometry, np.conj(u0.coeffs))
    n = 4
    delta = 2.0**-n
    times = np.linspace(0.0, delta, 257)
    nx = es._block_nx(u0)
    a = es.free_solution_grid(ubar, SCHROEDINGER, times, nx)
    b = es.free_solution_grid(u0, SCHROEDINGER, -times, nx)
    la = es._lq_t(es._lp_x(a, 1.0, 4), times, 6)
    lb = es._lq_t(es._lp_x(b, 1.0, 4), times, 6)
    assert abs(la - lb) < 1e-12 * la


def test_ensemble_monotone_refinement():
    small = es.maximal_ratio([3, 4, 5], count=3, seed=7)
    large = es.maximal_ratio([3, 4, 5], count=6, seed=7)
    for a, b in zip(small.points, large.points):
        assert b.max_ratio >= a.max_ratio - 1e-15


def test_amplitude_invariance_of_ratios():
    cfg = es.TrilinearConfig("low_low_low_to_low", (1, 1, 1, 1))
    prof = cfg.profiles(es.sample_rng(8, 0))
    r1 = cfg.lhs_norm(prof) / np.prod(cfg.rhs_factor_norms(prof))
    prof2 = [3.0 * p for p in prof]
    r2 = cfg.lhs_norm(prof2) / np.prod(cfg.rhs_factor_norms(prof2))
    assert abs(r1 - r2) < 1e-12 * r1


class TestTrilinear:
    def test_class_validation(self):
        with pytest.raises(ValueError):
            es.TrilinearConfig("high_low_low_to_high", (4, 4, 6, 6))
        with pytest.raises(ValueError):
            es.TrilinearConfig("low_low_low_to_low", (6, 6, 6, 6))
        with pytest.raises(KeyError):
            es.TrilinearConfig("nonsense", (1, 1, 1, 1))

    def test_alpha_factors(self):
        assert es.TRILINEAR_CLASSES["high_low_low_to_high"].alpha((2, 3, 6, 6)) == 2.0
        assert es.TRILINEAR_CLASSES["high_high_high_to_high"].alpha((6, 6, 6, 6)) == 8.0
        assert es.TRILINEAR_CLASSES["low_low_low_to_low"].alpha((1, 1, 1, 1)) == 1.0

    def test_zero_factor_gives_zero(self):
        cfg = es.TrilinearConfig("low_low_low_to_low", (1, 1, 1, 1))
        prof = cfg.profiles(es.sample_rng(9, 0))
        prof[2] = np.zeros_like(prof[2])
        assert cfg.lhs_norm(prof) == 0.0

    def test_spike_evaluator_matches_direct(self):
        """The spike-and-convolve evaluator agrees with a brute-force
        space-time product norm on a small configuration."""
        import toruslab.spacetime as st
        from toruslab import bumps
        from toruslab.spectral import TorusGeometry

        for law, conj in ((BENJAMIN_ONO, False), (SCHROEDINGER, True)):
            cfg = es.TrilinearConfig("low_low_low_to_low", (2, 1, 1, 2),
                                     law=law, conjugate_middle=conj)
            prof = cfg.profiles(es.sample_rng(10, 0))
            centers = np.linspace(-0.5 * cfg.env_scale, 0.5 * cfg.env_scale, 5)
            spike = cfg.lhs_norm(prof, centers=centers)
            # direct: build factors on a fine grid, multiply, nk-norm
            lam = cfg.lam
            k4 = cfg.ks[3]
            om_max = max(
                float(np.max(np.abs(t[1]))) for t in cfg.tables if t is not None
            )
            dt = min(2.0**-k4 / 32.0, np.pi / (8.0 * max(om_max, 1.0)))
            half = bumps.OUTER * cfg.env_scale
            t = np.arange(-half - 2 * dt, half + 2 * dt, dt)
            env = cfg.envelope(t)
            mmax = sum(int(np.abs(l).max()) for l in cfg.lattices)
            nx = bumps.next_pow2(2 * mmax + 2)
            prod = np.ones((t.size, nx), complex)
            for s in range(3):
                latt = cfg.lattices[s]
                rows = (
                    np.exp(1j * np.outer(t, law.omega(latt / lam)))
                    * prof[s][None, :]
                )
                a = np.zeros((t.size, nx), complex)
                a[:, latt % nx] = rows
                vals = np.fft.ifft(a, axis=1) * nx / (2 * np.pi * lam)
                vals = vals * env[:, None]
                if cfg.slot_sign[s] == -1:
                    vals = np.conj(vals)
                prod *= vals
            what = np.fft.fft(prod, axis=1) * (2 * np.pi * lam / nx)
            cols = cfg.out_lattice % nx
            w = what[:, cols] * (1j * cfg.out_lattice / lam)[None, :]
            f = st.SpaceTimeField(
                TorusGeometry(lam, nx), cfg.out_lattice, t, w,
                (float(t[0]), float(t[-1])),
            )
            direct = st.nk_norm(f, k4, law=law, centers=centers)
            assert abs(spike - direct) <= 0.02 * direct

    def test_factor_norm_factorization(self):
        """The factored F-norm equals the generic windowed norm."""
        import toruslab.spacetime as st
        from toruslab import bumps
        from toruslab.spectral import TorusGeometry

        cfg = es.TrilinearConfig("low_low_low_to_low", (2, 1, 1, 2))
        prof = cfg.profiles(es.sample_rng(11, 0))
        fn = cfg.rhs_factor_norms(prof)
        lam = cfg.lam
        latt = cfg.lattices[0]
        k = cfg.ks[0]
        dt = 2.0**-k / 32.0
        half = bumps.OUTER * cfg.env_scale
        t = np.arange(-half - 2 * dt, half + 2 * dt, dt)
        vals = (
            np.exp(1j * np.outer(t, BENJAMIN_ONO.omega(latt / lam)))
            * prof[0][None, :]
            * cfg.envelope(t)[:, None]
        )
        f = st.SpaceTimeField(TorusGeometry(lam, 64), latt, t, vals,
                              (float(t[0]), float(t[-1])))
        direct = st.fk_norm(f, k, law=BENJAMIN_ONO)
        assert abs(fn[0] - direct) <= 0.05 * direct

    def test_window_constant_matches_per_center_oracle(self):
        """Batched window constants, tabulated (theta = 0) or evaluated (the
        tuned shift, beyond the grid's Nyquist frequency at (7, 7, 7, 3)), agree
        with the per-center loop for every slot and both laws."""
        cases = [("high_high_high_to_low", (5, 5, 5, 1)),
                 ("high_high_high_to_low", (7, 7, 7, 3)),
                 ("high_low_low_to_high", (3, 4, 7, 7)),
                 ("low_low_low_to_low", (1, 1, 3, 3))]
        beyond_nyquist = 0
        for cls_name, ks in cases:
            oracle = {}  # the constant depends on the law only through theta
            for law, conj in ((BENJAMIN_ONO, False), (SCHROEDINGER, True)):
                cfg = es.TrilinearConfig(cls_name, ks, law=law,
                                         conjugate_middle=conj)
                # unit lattice L2, so each factor norm is its window constant
                unit = [np.sqrt(cfg.lam) * (np.arange(l.size) == 0)
                        for l in cfg.lattices]
                tuned = -cfg.slot_sign[cfg.dep] * cfg.omega_mode
                for theta in (0.0, tuned):
                    got = cfg.rhs_factor_norms(unit, thetas=(theta,) * 3)
                    for s in range(3):
                        key = (cfg.ks[s], theta)
                        if key not in oracle:
                            oracle[key] = oracle_window_constant(cfg, s, theta)
                        assert abs(got[s] - oracle[key]) <= 1e-12 * oracle[key]
                        dt = window_grid(cfg, s)[0]
                        beyond_nyquist += abs(theta) > np.pi / dt
        assert beyond_nyquist > 0

    def test_window_constant_is_fk_norm_at_zero_theta(self):
        """At theta = 0 the window constant is the generic windowed norm of a
        one-mode free solution under the envelope, on one global time grid
        through the same centers."""
        cases = [("high_high_high_to_low", (5, 5, 5, 1)),
                 ("high_low_low_to_high", (3, 4, 7, 7)),
                 ("low_low_low_to_low", (0, 1, 3, 3))]
        for cls_name, ks in cases:
            cfg = es.TrilinearConfig(cls_name, ks)
            for s in range(3):
                k = cfg.ks[s]
                dt, centers = window_grid(cfg, s)
                half_win = bumps.OUTER * 2.0**-k
                span = centers[-1] - centers[0] + 2 * half_win
                t = centers[0] - half_win + dt * np.arange(round(span / dt) + 1)
                f = st.modulated_profile_field(
                    TorusGeometry(cfg.lam, 64), cfg.lattices[s][:1], t,
                    np.ones(1), cfg.envelope(t), cfg.law,
                )
                direct = st.fk_norm(f, k, law=cfg.law, centers=centers,
                                    tau_bins=32)
                const = cfg.factor_window_constant(s)
                assert abs(const - direct) <= 1e-12 * direct

    def test_sweep_report(self):
        rep = es.trilinear_sweep(
            "low_low_low_to_low", [(1, 1, k, k) for k in (2, 3, 4)],
            count=2, seed=12,
        )
        assert len(rep.points) == 3
        assert np.isfinite(rep.slope)


def test_thread_override_bit_identical(monkeypatch):
    monkeypatch.setenv("TORUSLAB_THREADS", "3")
    r3 = es.maximal_ratio([3, 4, 5], count=4, seed=13)
    monkeypatch.setenv("TORUSLAB_THREADS", "1")
    r1 = es.maximal_ratio([3, 4, 5], count=4, seed=13)
    for a, b in zip(r1.points, r3.points):
        assert a.max_ratio == b.max_ratio and a.mean_ratio == b.mean_ratio


def test_smoothing_low_block_finite():
    rep = es.smoothing_ratio([0, 1, 2], count=3, seed=14)
    assert all(np.isfinite(p.max_ratio) and p.max_ratio > 0 for p in rep.points)
