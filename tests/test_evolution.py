import numpy as np
import pytest

from toruslab import evolution as ev
from toruslab import spectral as sp

from oracles import serial_evolve


def small_data(m=64, band=15, amp=0.3, seed=0, real=True, decay=1.0):
    rng = np.random.default_rng(seed)
    g = sp.TorusGeometry(1.0, m)
    return sp.random_field(g, rng, band=band, real=real, decay=decay) * amp


def test_free_evolve_single_mode():
    g = sp.TorusGeometry(1.0, 64)
    x = g.xgrid()
    f = sp.forward_transform(np.exp(2j * x), g)
    out = ev.free_evolve(f, 0.7, ev.BENJAMIN_ONO)
    assert abs(out.coeff(2) / f.coeff(2) - np.exp(-4j * 0.7)) < 1e-14
    assert np.max(np.abs(ev.free_evolve(f, 0.0, ev.BENJAMIN_ONO).coeffs - f.coeffs)) == 0


def test_free_evolve_group_law_and_unitarity():
    u = small_data(real=False)
    for law in (ev.BENJAMIN_ONO, ev.SCHROEDINGER):
        a = ev.free_evolve(ev.free_evolve(u, 0.3, law), 0.4, law)
        b = ev.free_evolve(u, 0.7, law)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12
        assert abs(ev.free_evolve(u, 5.0, law).l2_norm() - u.l2_norm()) < 1e-12


def test_flow_problem_rejects_complex_real_flow():
    u = small_data(real=False)
    with pytest.raises(ValueError):
        ev.FlowProblem(ev.BENJAMIN_ONO, +1, u)
    ev.FlowProblem(ev.SCHROEDINGER, +1, u)  # fine


def test_nonlinearity_matches_geometry_scatter():
    """The stepper's cube on n >= 4 band + 1 points (a real FFT of the half
    spectrum for the real flow) agrees within 1e-15 with the cube on the
    complex 2M grid scattered from the geometry, on every mode."""
    for law, real in ((ev.BENJAMIN_ONO, True), (ev.SCHROEDINGER, False)):
        u = small_data(real=real)
        stepper = ev.FlowIntegrator(ev.FlowProblem(law, +1, u), 1e-3)
        g = u.geometry
        npad = 2 * g.grid_size
        padded = np.zeros(npad, dtype=complex)
        padded[g.mvals % npad] = u.coeffs
        w = np.fft.ifft(padded) * npad / g.period
        cube = w * np.conj(w) * w if law is ev.SCHROEDINGER else w**3
        chat = (np.fft.fft(cube) * (g.period / npad))[g.mvals % npad]
        in_band = np.abs(g.mvals) <= ev.dealias_band(g)
        mult = (1j * g.xi) / (3.0 if real else 1.0)
        expected = np.where(in_band, mult * chat, 0.0)
        got = stepper.unpack(stepper.nonlinearity(stepper.pack(u.coeffs)))
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_zero_data_stays_zero():
    g = sp.TorusGeometry(1.0, 64)
    z = sp.SpectralField(g, np.zeros(64), real=True)
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, z)
    out = ev.evolve(prob, ev.default_dt(prob)).states[-1]
    assert np.max(np.abs(out)) == 0.0


@pytest.mark.parametrize("law,sigma,real", [
    (ev.BENJAMIN_ONO, +1, True),
    (ev.BENJAMIN_ONO, -1, True),
    (ev.SCHROEDINGER, +1, False),
])
def test_evolve_many_matches_serial_oracle(law, sigma, real):
    """A batch of one and a batch of four with mixed time directions agree
    with the serial complex 2M-grid stepper within 1e-12 relative on every
    snapshot, and each row of the batch equals its own evolve call exactly."""
    problems = [ev.FlowProblem(law, sigma, small_data(real=real, seed=k))
                for k in range(4)]
    t_final, nsnap = 0.3, 5
    for batch, signs in ((problems[:1], [1]), (problems, [1, -1, -1, 1])):
        t_finals = [sign * t_final for sign in signs]
        trajs = ev.evolve_many(batch, t_finals, n_snapshots=nsnap)
        assert len(trajs) == len(batch)
        for prob, t, traj in zip(batch, t_finals, trajs):
            assert traj.problem is prob
            times, states = serial_evolve(prob, t, n_snapshots=nsnap)
            assert np.array_equal(traj.times, times)
            for got, want in zip(traj.states, states):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale
            single = ev.evolve(prob, t, n_snapshots=nsnap)
            assert np.array_equal(single.times, traj.times)
            assert np.array_equal(single.states, traj.states)


def test_evolve_many_rejects_mixed_batches():
    u = small_data()
    bo = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u)
    for other in (ev.FlowProblem(ev.BENJAMIN_ONO, -1, u),
                  ev.FlowProblem(ev.SCHROEDINGER, +1, u),
                  ev.FlowProblem(ev.BENJAMIN_ONO, +1, small_data(m=32, band=8))):
        with pytest.raises(ValueError):
            ev.evolve_many([bo, other], [0.1, 0.1])
    with pytest.raises(ValueError):
        ev.evolve_many([bo, bo], [0.1, 0.2])
    with pytest.raises(ValueError):
        ev.evolve_many([bo, bo], [0.1])


def test_evolve_two_sided_joins_at_zero():
    """Each two-sided trajectory is its backward run reversed, then its
    forward run after t = 0."""
    problems = [ev.FlowProblem(ev.BENJAMIN_ONO, +1, small_data(seed=k))
                for k in range(2)]
    nsnap = 4
    for prob, traj in zip(problems, ev.evolve_two_sided(problems, 0.1,
                                                        n_snapshots=nsnap)):
        bwd = ev.evolve(prob, -0.1, n_snapshots=nsnap)
        fwd = ev.evolve(prob, 0.1, n_snapshots=nsnap)
        assert traj.problem is prob and len(traj) == 2 * nsnap - 1
        assert np.array_equal(traj.times, np.concatenate([bwd.times[::-1], fwd.times[1:]]))
        assert np.array_equal(traj.states[:nsnap], bwd.states[::-1])
        assert np.array_equal(traj.states[nsnap:], fwd.states[1:])
        assert np.all(np.diff(traj.times) > 0) and traj.times[nsnap - 1] == 0.0


def test_conserved_quantities_closed_forms():
    g = sp.TorusGeometry(1.0, 256)
    x = g.xgrid()
    c = sp.forward_transform(np.cos(x), g)
    assert abs(ev.conserved_mass(c) - np.pi) < 1e-12
    z = sp.SpectralField(g, np.zeros(256), real=True)
    assert ev.conserved_mass(z) == 0.0
    assert ev.conserved_energy(z, +1) == 0.0
    eps = 0.17
    ce = sp.forward_transform(eps * np.cos(x), g)
    for sig in (+1, -1):
        want = eps**2 * np.pi / 2.0 - sig * eps**4 * (3.0 * np.pi / 4.0) / 12.0
        assert abs(ev.conserved_energy(ce, sig) - want) < 1e-12


@pytest.mark.parametrize("law,sigma,real", [
    (ev.BENJAMIN_ONO, +1, True),
    (ev.BENJAMIN_ONO, -1, True),
    (ev.SCHROEDINGER, +1, False),
])
def test_conservation_along_flow(law, sigma, real):
    u0 = small_data(real=real, amp=0.3)
    prob = ev.FlowProblem(law, sigma, u0)
    traj = ev.evolve(prob, 0.5, n_snapshots=3)
    l0 = traj.field(0).l2_norm()
    assert abs(traj.field(2).l2_norm() - l0) / l0 < 1e-9
    if real:
        e0 = ev.conserved_energy(traj.field(0), sigma)
        eT = ev.conserved_energy(traj.field(2), sigma)
        assert abs(eT - e0) / abs(e0) < 1e-9


def test_self_convergence_fourth_order():
    u0 = small_data(amp=0.4)
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)
    base = ev.default_dt(prob) * 2
    finals = []
    for f in (1, 2, 4, 8):
        finals.append(ev.evolve(prob, 0.5, dt=base / f, n_snapshots=2).states[-1])
    o1 = np.log2(np.linalg.norm(finals[0] - finals[3]) / np.linalg.norm(finals[1] - finals[3]))
    o2 = np.log2(np.linalg.norm(finals[1] - finals[3]) / np.linalg.norm(finals[2] - finals[3]))
    assert abs(o1 - 4.0) < 0.3 and abs(o2 - 4.0) < 0.3


def test_reflection_time_reversal():
    """Reflection x -> -x of a real field conjugates its coefficients."""
    u0 = small_data(amp=0.4, m=64, band=12)
    g = u0.geometry
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)
    dt = ev.default_dt(prob) / 2
    reflected = sp.SpectralField(g, np.conj(u0.coeffs), real=True)
    fwd_reflected = ev.evolve(
        ev.FlowProblem(ev.BENJAMIN_ONO, +1, reflected), 0.2, dt=dt,
        n_snapshots=2
    ).states[-1]
    bwd = ev.evolve(prob, -0.2, dt=dt, n_snapshots=2).states[-1]
    bwd_reflected = sp.SpectralField(g, np.conj(bwd), real=True).coeffs
    scale = np.max(np.abs(fwd_reflected))
    assert np.max(np.abs(fwd_reflected - bwd_reflected)) < 1e-10 * scale


def test_rescale():
    g = sp.TorusGeometry(1.0, 64)
    x = g.xgrid()
    f = sp.forward_transform(np.exp(2j * x), g)
    r = ev.rescale(f, 2.0)
    assert r.geometry.lam == 2.0
    # mode xi = 2 moves to xi = 1 (same integer slot), amplitude sqrt(2)
    assert abs(r.coeff(2) - np.sqrt(2.0) * f.coeff(2)) < 1e-12
    assert abs(r.l2_norm() - f.l2_norm()) < 1e-14
    assert ev.rescale(f, 1.0) is f
    with pytest.raises(ValueError):
        ev.rescale(f, 3.0)
    u = small_data()
    assert abs(ev.rescale(u, 4.0).l2_norm() - u.l2_norm()) < 1e-14


def test_rescaling_commutes_with_flow():
    u0 = small_data(m=64, band=10, amp=0.3, decay=1.5)
    r = 2.0
    t = 0.1
    prob1 = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)
    dt = ev.default_dt(prob1) / 2
    evolved_then_scaled = ev.rescale(
        sp.SpectralField(u0.geometry, ev.evolve(prob1, t, dt=dt, n_snapshots=2).states[-1], real=True),
        r,
    )
    scaled = ev.rescale(u0, r)
    prob2 = ev.FlowProblem(ev.BENJAMIN_ONO, +1, scaled)
    scaled_then_evolved = ev.evolve(prob2, r**2 * t, dt=dt * r**2, n_snapshots=2).states[-1]
    num = np.max(np.abs(evolved_then_scaled.coeffs - scaled_then_evolved))
    assert num < 1e-9 * np.max(np.abs(scaled_then_evolved))


def test_blowup_guard():
    u0 = small_data(amp=0.4)
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)
    with pytest.raises(ValueError):
        ev.FlowIntegrator(prob, 1e3)  # far beyond the documented regime


def test_dealias_band_invariant():
    u0 = small_data(m=64, band=30, amp=0.2)  # beyond the band: projected
    prob = ev.FlowProblem(ev.BENJAMIN_ONO, +1, u0)
    traj = ev.evolve(prob, 0.05, n_snapshots=2)
    band = ev.dealias_band(u0.geometry)
    mv = u0.geometry.mvals
    assert np.max(np.abs(traj.states[-1][np.abs(mv) > band])) == 0.0
