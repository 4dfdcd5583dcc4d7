from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from toruslab import bumps
from toruslab import evolution as ev
from toruslab import spacetime as st
from toruslab import spectral as sp

from oracles import eta_j, lag_kernels_direct

LAW = ev.BENJAMIN_ONO


def snapshot_l2(field, i):
    """L2(torus) norm of the spatial trace of a SpaceTimeField at time
    index i."""
    return float(np.sqrt(np.sum(np.abs(field.values[i]) ** 2)
                         / (2.0 * np.pi * field.geometry.lam)))


def block_field(k, seed=0, lam=1.0, envelope_scale=None, tspan=None, law=LAW,
                dt_frac=32, real=False):
    """Windowed free solution on block k with a smooth bump envelope."""
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(lam, bumps.next_pow2(int(8 * 2 ** (k + 1) * lam)))
    phi = sp.random_field(g, rng, block=k, real=real)
    nz = np.abs(phi.coeffs) > 0
    mv = np.sort(g.mvals[nz])
    order = np.argsort(g.mvals[nz])
    prof = phi.coeffs[nz][order]
    scale = envelope_scale if envelope_scale is not None else 2.0**-k
    span = tspan if tspan is not None else 2.0 * scale
    dt = min(2.0**-k, scale) / dt_frac
    tg = np.arange(-span, span + dt / 2, dt)
    env = bumps.eta0(tg / scale)
    return st.modulated_profile_field(g, mv, tg, prof, env, law), phi


def _segment_norm(times, vals, xi, k, b, law, lam, resolvent,
                  tau_bins=st.TAU_BINS_PER_WINDOW_SCALE):
    """Modulation-weighted norm of one (already windowed) time segment."""
    nt = times.size
    if nt < 2 or not np.any(vals):
        return 0.0
    dt = float(times[1] - times[0])
    nu = vals * np.exp(-1j * np.outer(times, law.omega(xi)))
    dtau_target = 2.0**k / tau_bins
    npad = bumps.next_pow2(
        max(4 * nt, int(np.ceil(2.0 * np.pi / (dtau_target * dt))))
    )
    nutilde = np.fft.fft(nu, n=npad, axis=0) * dt
    taut = 2.0 * np.pi * np.fft.fftfreq(npad, dt)
    dtau = 2.0 * np.pi / (npad * dt)
    power = dtau * np.sum(np.abs(nutilde) ** 2, axis=1) / lam
    if resolvent:
        power = power / (taut**2 + 4.0**k)
    tau_max = np.pi / dt
    total = 0.0
    for j in range(bumps.max_resolved_j(tau_max) + 1):
        w = eta_j(taut, j)
        block = float(np.sum(w * w * power))
        if block > 0.0:
            total += 2.0 ** (j * b) * np.sqrt(block)
    return total


def oracle_norm(field, k, b, law, resolvent, centers=None,
                tau_bins=st.TAU_BINS_PER_WINDOW_SCALE, windowed=True):
    """Reference for fk/nk (windowed) and xk (not windowed): one zero-padded
    FFT per window, evaluated on its own tau grid."""
    cols = field.active_columns()
    if not np.any(cols):
        return 0.0
    xi = field.xi[cols]
    vals = field.values[:, cols]
    t = field.tgrid
    lam = field.geometry.lam
    if not windowed:
        return _segment_norm(t, vals, xi, k, b, law, lam, False, tau_bins)
    if centers is None:
        centers = st.window_centers(field.support, k)
    halfwidth = bumps.OUTER * 2.0**-k
    best = 0.0
    scale = 2.0**k
    for c in centers:
        lo = np.searchsorted(t, c - halfwidth)
        hi = np.searchsorted(t, c + halfwidth, side="right")
        if hi - lo < 2:
            continue
        seg_t = t[lo:hi]
        w = bumps.eta0(scale * (seg_t - c))
        seg = vals[lo:hi] * w[:, None]
        if not np.any(seg):
            continue
        val = _segment_norm(
            seg_t, seg, xi, k, b, law, lam, resolvent, tau_bins=tau_bins
        )
        best = max(best, val)
    return best


def assert_matches_oracle(f, k, b, tau_bins, centers=None, law=LAW):
    cases = (
        (st.fk_norm(f, k, law=law, b=b, centers=centers, tau_bins=tau_bins),
         oracle_norm(f, k, b, law, False, centers, tau_bins)),
        (st.nk_norm(f, k, law=law, b=b, centers=centers, tau_bins=tau_bins),
         oracle_norm(f, k, b, law, True, centers, tau_bins)),
        (st.xk_norm(f, k, b=b, law=law, tau_bins=tau_bins),
         oracle_norm(f, k, b, law, False, tau_bins=tau_bins, windowed=False)),
    )
    for fast, ref in cases:
        assert ref > 0.0
        assert abs(fast - ref) <= 1e-12 * ref


@pytest.mark.parametrize("k", range(7))
def test_norms_match_per_window_oracle(k):
    """The batched lag-kernel evaluation of fk, nk and xk agrees with one
    zero-padded FFT per window to 1e-12 relative."""
    tau_bins = (8, 16, 32)[k % 3]
    f, _ = block_field(k, seed=40 + k)
    # envelope wider than the grid: the field is cut at both grid edges, so
    # every window near an edge is truncated
    cut, _ = block_field(k, seed=50 + k, envelope_scale=2.0 ** (2 - k),
                         tspan=2.0 ** -k)
    assert np.max(np.abs(cut.values[0])) > 0.1 * np.max(np.abs(cut.values))
    for b in (0.25, 0.5):
        assert_matches_oracle(f, k, b, tau_bins)
        assert_matches_oracle(cut, k, b, tau_bins)


@pytest.mark.parametrize("k, dt_frac", [(0, 1024), (1, 512)])
def test_norms_match_oracle_on_fine_time_grids(k, dt_frac):
    """Steps far below the window scale leave the top annuli with almost no
    content: their lag sums need the difference forms, and some round below
    zero."""
    f, _ = block_field(k, seed=70 + k, dt_frac=dt_frac)
    assert_matches_oracle(f, k, 0.5, 8)


def test_norms_match_oracle_on_zero_windows_and_explicit_centers():
    k = 4
    f, _ = block_field(k, seed=60)
    assert st.fk_norm(replace(f, values=0.0 * f.values), k, law=LAW) == 0.0
    assert st.nk_norm(replace(f, values=0.0 * f.values), k, law=LAW) == 0.0
    # zero rows for t < 0: every window centred left of -8/5 2^-k is zero
    half = st.SpaceTimeField(f.geometry, f.mvals, f.tgrid,
                             f.values * (f.tgrid >= 0.0)[:, None], f.support)
    centers = np.linspace(f.tgrid[0] - 2.0**-k, f.tgrid[-1] + 2.0**-k, 9)
    for field in (f, half):
        assert_matches_oracle(field, k, 0.5, 16, centers=centers)
        assert_matches_oracle(field, k, 0.25, 32)


def transformed_modes(monkeypatch):
    """Mode-axis lengths of the segment batches `_modulation_sup` transforms,
    appended as they are made."""
    fft, modes = np.fft.fft, []

    def recorded(a, *args, **kwargs):
        if np.ndim(a) == 3:
            modes.append(a.shape[2])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recorded)
    return modes


@pytest.mark.parametrize("k", range(7))
def test_real_field_norms_match_per_window_oracle(k, monkeypatch):
    """A real field under the odd law weighs each conjugate mode pair once
    (the m >= 0 half, m > 0 twice); fk, nk and xk still agree with the
    oracle, which transforms every column, to 1e-12 relative."""
    f, _ = block_field(k, seed=80 + k, real=True)
    modes = transformed_modes(monkeypatch)
    assert_matches_oracle(f, k, 0.5, (8, 16, 32)[k % 3])
    assert set(modes) == {np.sum(f.active_columns() & (f.mvals >= 0))}


def test_pair_fold_taken_only_on_exact_conjugate_pairs(monkeypatch):
    """The segment transforms hold the m >= 0 active columns of a real field
    under the odd law, and every active column under the Schroedinger law,
    for complex data, and when one column is one ulp off its mirror's
    conjugate; each case matches the oracle."""
    k = 4
    f, _ = block_field(k, seed=90, real=True)
    g, _ = block_field(k, seed=91)
    active = f.active_columns()
    half = int(np.sum(active & (f.mvals >= 0)))
    assert 2 * half == np.sum(active) > 0
    nudged = f.values.copy()
    col = np.flatnonzero(active & (f.mvals > 0))[0]
    row = np.argmax(np.abs(nudged[:, col]))
    nudged[row, col] = complex(np.nextafter(nudged[row, col].real, np.inf),
                               nudged[row, col].imag)
    cases = [(f, LAW, half), (f, ev.SCHROEDINGER, 2 * half),
             (g, LAW, int(np.sum(g.active_columns()))),
             (replace(f, values=nudged), LAW, 2 * half)]
    for field, law, width in cases:
        modes = transformed_modes(monkeypatch)
        assert_matches_oracle(field, k, 0.5, 16, law=law)
        monkeypatch.undo()
        # fk and nk, windowed; xk, one segment; the oracle makes 2-D FFTs
        assert set(modes) == {width} and len(modes) >= 3


def test_apriori_norms_match_unfolded_evaluation(monkeypatch):
    """Criterion 10's F and N norms (seed 110, two samples) with the pair
    fold agree with the evaluation that weighs every column to 1e-13
    relative."""
    from toruslab import runner as rn

    trajs = rn._apriori_trajectories(110, 0.05, 256, 1.0, 2)
    fields = [st.from_trajectory(traj) for traj in trajs]

    def norms():
        return [st.assembled_norm(fields, 0.25, kind, 1.0, law=LAW,
                                  tau_bins=16) for kind in ("F", "N")]

    modes = transformed_modes(monkeypatch)
    folded = norms()
    half = sum(modes)
    monkeypatch.setattr(st, "_mode_weights",
                        lambda field, cols, law: (cols, np.ones(np.sum(cols))))
    for fold, full in zip(folded, norms()):
        assert all(abs(a - b) <= 1e-13 * b for a, b in zip(fold, full))
    assert 0 < half < sum(modes) - half  # the fold was taken


def test_segment_and_lag_batches_stay_within_chunk_bound(monkeypatch):
    """On criterion 10's geometry both batches of every F block, the
    (windows, L, modes) segments and the (forms, windows, L) lag sums, stay
    within CHUNK_BYTES (block 0 holds 10 windows of 8192 lags)."""
    sizes = []
    for name in ("fft", "ifft"):
        def recorded(a, *args, _f=getattr(np.fft, name), **kwargs):
            if np.ndim(a) == 3:
                sizes.append(a.nbytes)
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)
    st.assembled_norm([apriori_grid_field(1)], 0.25, "F", 1.0, law=LAW,
                      tau_bins=16)
    assert sizes and max(sizes) <= st.CHUNK_BYTES


def apriori_grid_field(columns):
    """Field on criterion 10's geometry (M = 256 on [-1, 1] at dt = 1/1536,
    blocks 0 to 7), one in the first `columns` lattice columns of each block
    and zero elsewhere."""
    g = sp.TorusGeometry(1.0, 256)
    mv = np.sort(g.mvals)
    t = np.arange(-1536, 1537) / 1536.0
    vals = np.zeros((t.size, mv.size), dtype=complex)
    for k in range(sp.max_block(g) + 1):
        vals[:, np.flatnonzero(sp.block_indicator(mv / g.lam, k))[:columns]] = 1.0
    return st.SpaceTimeField(g, mv, t, vals, (-1.0, 1.0))


@pytest.mark.parametrize("tau_bins", [16, 32])
def test_folded_lag_kernels_match_direct_builds(tau_bins, monkeypatch):
    """The F assembly's lag kernels, transformed once at the largest npad and
    folded onto every block's tau grid, agree with a direct build on each
    grid to 1e-15 of the direct kernel's l1 norm over its lags, for every
    block, form and annulus (measured 8.5e-17), and equal it bitwise at the
    largest npad."""
    fold, built = st._lag_kernels, []

    def record(targets, dt, resolvent_k=None):
        out = fold(targets, dt, resolvent_k)
        built.append((targets, dt, [kern.copy() for kern, _ in out]))
        return out

    monkeypatch.setattr(st, "_lag_kernels", record)
    st.assembled_norm([apriori_grid_field(0)], 0.25, "F", 1.0, law=LAW,
                      tau_bins=tau_bins)
    ((targets, dt, kerns),) = built
    assert [npad for npad, _ in targets] == [2 ** (19 - k) * tau_bins // 32
                                             for k in range(8)]
    for (npad, lags), kern in zip(targets, kerns):
        direct = lag_kernels_direct(npad, lags, dt, kern.shape[2])
        l1 = np.sum(np.abs(direct), axis=1)[:, None, :]
        assert np.all(np.abs(kern - direct) <= 1e-15 * l1)
    assert np.array_equal(kerns[0], lag_kernels_direct(*targets[0], dt, 14))


def test_f_assembly_transforms_each_weight_row_once(monkeypatch):
    """On criterion 10's geometry one F assembly makes one inverse transform
    per nonzero (annulus, form), all at the largest npad: 1 + 4 x 12 = 49,
    as eta_13 lies beyond the Nyquist frequency 1536 pi (a build per block
    made 371 on criterion 10's fields).  N still builds per block, at that
    block's npad, since its resolvent weight depends on k; block 7's grid,
    2^11 points, also has no bin in eta_1."""
    irfft, calls = np.fft.irfft, []

    def counted(a, n=None, *args, **kwargs):
        calls.append(n)
        return irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    field = apriori_grid_field(1)
    st.assembled_norm([field], 0.25, "F", 1.0, law=LAW, tau_bins=16)
    assert calls == [2**18] * 49
    calls.clear()
    st.assembled_norm([field], 0.25, "N", 1.0, law=LAW, tau_bins=16)
    assert Counter(calls) == {2 ** (18 - k): 49 - 4 * (k == 7) for k in range(8)}


def test_partition_of_unity():
    tau = np.linspace(-1000, 1000, 20001)
    stack = bumps.eta_stack(tau, bumps.max_resolved_j(1000.0))
    assert np.max(np.abs(stack.sum(axis=0) - 1.0)) < 1e-12
    # annulus supports
    for j in range(1, 8):
        w = stack[j]
        live = np.abs(w) > 0
        assert np.all(np.abs(tau[live]) >= 2.0 ** (j - 1) * 5.0 / 4.0 - 1e-9)
        assert np.all(np.abs(tau[live]) <= 2.0**j * 8.0 / 5.0 + 1e-9)


def test_eta0_shape():
    assert bumps.eta0(0.0) == 1.0
    assert bumps.eta0(1.24) == 1.0
    assert bumps.eta0(-1.24) == 1.0
    assert bumps.eta0(1.61) == 0.0
    mid = bumps.eta0(1.4)
    assert 0.0 < mid < 1.0


def test_xk_zero_and_homogeneity():
    f, _ = block_field(3, seed=1)
    assert st.xk_norm(replace(f, values=0.0 * f.values), 3, law=LAW) == 0.0
    a = st.xk_norm(f, 3, law=LAW)
    b = st.xk_norm(replace(f, values=2.5 * f.values), 3, law=LAW)
    assert abs(b - 2.5 * a) < 1e-9 * a


def test_xk_support_violation():
    f, _ = block_field(3, seed=1)
    with pytest.raises(st.SupportError):
        st.xk_norm(f, 5, law=LAW)


def test_transfer_sanity_windowed_free():
    """Windowed free solutions have block norm comparable to the data L2,
    with constants independent of the block."""
    ratios = []
    for k in (3, 4, 5, 6, 7):
        f, phi = block_field(k, seed=k)
        ratios.append(st.xk_norm(f, k, law=LAW) / phi.l2_norm())
    ratios = np.array(ratios)
    assert np.all(ratios > 0.05) and np.all(ratios < 100.0)
    assert np.max(ratios) / np.min(ratios) < 2.0


def test_fk_dominates_sup_l2():
    worst = 0.0
    for k in (2, 3, 4):
        f, _ = block_field(k, seed=10 + k)
        sup_l2 = max(snapshot_l2(f, i) for i in range(len(f.tgrid)))
        fk = st.fk_norm(f, k, law=LAW)
        worst = max(worst, sup_l2 / fk)
    # embedding check: uniform-in-time L2 controlled by the shorttime
    # norm; constant recorded, boundedness asserted
    assert worst < 5.0


def test_fk_time_translation_stability():
    k = 4
    f, _ = block_field(k, seed=3)
    base = st.fk_norm(f, k, law=LAW)
    shift = 2.0**-k
    g = st.SpaceTimeField(
        f.geometry, f.mvals, f.tgrid + shift, f.values,
        (f.support[0] + shift, f.support[1] + shift),
    )
    shifted = st.fk_norm(g, k, law=LAW)
    assert abs(shifted - base) <= 0.05 * base


def test_nk_modulation_decay():
    """Fields concentrated at modulation 2^j: the resolvent norm decreases
    in j once 2^j exceeds the window scale 2^k."""
    k = 3
    g = sp.TorusGeometry(1.0, 256)
    rng = np.random.default_rng(5)
    phi = sp.random_field(g, rng, block=k)
    nz = np.abs(phi.coeffs) > 0
    mv = np.sort(g.mvals[nz])
    prof = phi.coeffs[nz][np.argsort(g.mvals[nz])]
    vals = []
    for j in (4, 5, 6, 7, 8):
        theta = 2.0**j
        dt = min(2.0**-k / 32.0, np.pi / (8.0 * theta))
        tg = np.arange(-2.0 ** (-k + 1), 2.0 ** (-k + 1) + dt / 2, dt)
        env = bumps.eta0(tg * 2.0**k) * np.exp(1j * theta * tg)
        f = st.modulated_profile_field(g, mv, tg, prof, env, LAW)
        vals.append(st.nk_norm(f, k, law=LAW))
    vals = np.array(vals)
    assert np.all(vals[1:] < vals[:-1] * 1.1)
    assert vals[-1] < 0.5 * vals[0]


def test_modulation_regularity_trade():
    """Ratio of the b = 1/4 norm to the b = 1/2 norm decays like T^(1/4) for
    fields supported on [-T, T] (slope within 0.15 of 1/2 - b)."""
    b = 0.25
    pts = []
    for tlen in (1.0, 0.5, 0.25, 0.125):
        best = 0.0
        for seed in range(4):
            f, _ = block_field(0, seed=seed, envelope_scale=tlen / bumps.OUTER,
                               tspan=1.2 * tlen, dt_frac=64)
            num = st.fk_norm(f, 0, law=LAW, b=b)
            den = st.fk_norm(f, 0, law=LAW, b=0.5)
            best = max(best, num / den)
        pts.append((np.log2(tlen), np.log2(best)))
    from toruslab.estimates import fit_exponent

    slope, _, _ = fit_exponent(pts)
    assert abs(slope - (0.5 - b)) <= 0.15


def test_assembled_norms():
    g = sp.TorusGeometry(1.0, 128)
    rng = np.random.default_rng(7)
    u = sp.random_field(g, rng, band=40, real=True)
    # static-in-time field: E-kind vs Sobolev, blockwise bracket ratio
    tg = np.linspace(-1.0, 1.0, 33)
    vals = np.tile(u.coeffs[np.argsort(g.mvals)], (33, 1))
    f = st.SpaceTimeField(g, np.sort(g.mvals), tg, vals, (-1.0, 1.0))
    s = 0.4
    e_norm = st.assembled_norm([f], s, "E", 1.0)[0]
    hs = sp.sobolev_norm(u, s) / np.sqrt(2.0 * np.pi)
    assert e_norm <= hs * 1.0001
    assert e_norm >= hs * 5.0 ** (-s) * 0.9999
    # zero field
    zf = st.SpaceTimeField(g, np.sort(g.mvals), tg, 0.0 * vals, (-1.0, 1.0))
    for kind in ("E", "F", "N"):
        assert st.assembled_norm([zf], s, kind, 1.0, law=LAW)[0] == 0.0
    # single-block field: assembly reduces to the weighted block value
    k = 3
    fb, _ = block_field(k, seed=2)
    fk_val = st.fk_norm(
        st.time_cutoff(fb.restrict_block(k), 0.1, max(2.0 ** (-k - 10), 4 * fb.dt)),
        k, law=LAW,
    )
    asm = st.assembled_norm([fb], s, "F", 0.1, law=LAW)[0]
    assert abs(asm - 2.0 ** (k * s) * fk_val) < 1e-9 * asm


def test_assembled_norm_batch_equals_single_fields():
    """One call over fields on a shared time grid builds each block's window
    rows and lag kernels once and gives exactly the per-field values; fields
    on different time grids are rejected."""
    g = sp.TorusGeometry(1.0, 64)
    problems = [ev.FlowProblem(ev.BENJAMIN_ONO, +1, sp.random_field(
        g, np.random.default_rng(seed), band=10, real=True, decay=1.5) * 0.05)
        for seed in (3, 4)]
    fields = [st.from_trajectory(traj)
              for traj in ev.evolve_two_sided(problems, 0.3, n_snapshots=97)]
    fields.append(replace(fields[0], values=0.0 * fields[0].values))
    for kind in ("E", "F", "N"):
        batch = st.assembled_norm(fields, 0.3, kind, 0.25, law=LAW)
        single = [st.assembled_norm([f], 0.3, kind, 0.25, law=LAW)[0]
                  for f in fields]
        assert batch == single and batch[0] > 0.0 and batch[2] == 0.0
    f = fields[0]
    coarse = st.SpaceTimeField(f.geometry, f.mvals, f.tgrid[::2],
                               f.values[::2], f.support)
    with pytest.raises(ValueError, match="time grid"):
        st.assembled_norm([f, coarse], 0.3, "F", 0.25, law=LAW)


def test_linear_shorttime_energy_inequality():
    """Along integrated solutions, the shorttime norm is controlled by the
    energy norm plus the nonlinearity norm (constant recorded and bounded)."""
    m = 64
    s = 0.3
    t_lim = 0.25
    g = sp.TorusGeometry(1.0, m)
    problems = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        u0 = sp.random_field(g, rng, band=10, real=True, decay=1.5) * 0.05
        problems.append(ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0))
    stepper = ev.FlowIntegrator(problems[0], ev.default_dt(problems[0]))
    worst = 0.0
    for traj in ev.evolve_two_sided(problems, 1.3 * t_lim, n_snapshots=129):
        field = st.from_trajectory(traj)
        vstates = stepper.unpack(stepper.nonlinearity(stepper.pack(traj.states)))
        vfield = st.SpaceTimeField(
            g, field.mvals, traj.times,
            vstates[:, np.argsort(g.mvals)], field.support,
        )
        f_norm = st.assembled_norm([field], s, "F", t_lim, law=LAW)[0]
        e_norm = st.assembled_norm([field], s, "E", t_lim)[0]
        n_norm = st.assembled_norm([vfield], s, "N", t_lim, law=LAW)[0]
        worst = max(worst, f_norm / (e_norm + n_norm))
    assert np.isfinite(worst) and worst < 50.0


def test_nk_homogeneity():
    f, _ = block_field(3, seed=21)
    a = st.nk_norm(f, 3, law=LAW)
    b = st.nk_norm(replace(f, values=1.7 * f.values), 3, law=LAW)
    assert abs(b - 1.7 * a) < 1e-9 * a


def test_spacetime_transform_invertible():
    f, _ = block_field(3, seed=30)
    nt = len(f.tgrid)
    ft = np.fft.fft(f.values, axis=0)
    back = np.fft.ifft(ft, axis=0)
    assert np.max(np.abs(back - f.values)) < 1e-10 * np.max(np.abs(f.values))
