"""Acceptance gates for the whole package.

One test per criterion; each asserts at its stated tolerance, so a plain
`pytest -v tests/test_acceptance.py` prints one pass/fail line per gate.
Failing gates keep their measured numbers in the assert message.
"""
import time

import numpy as np

from rkfw import (
    DistanceSq,
    HuberMatrix,
    HuberScalar,
    L1Ball,
    LeastSquares,
    Logistic,
    ProblemInstance,
    SolverConfig,
    TABLEAU_NAMES,
    absorption_time,
    cancellability_margin,
    check_gradient,
    decrease_bound_check,
    decrease_bound_d4,
    feasibility_certificate,
    fit_rate_slope,
    huber_flow_exact,
    make_scalar_huber,
    make_sensing,
    make_sensing_logistic,
    make_tableau,
    make_triangle,
    reference_trajectory,
    rk_fw_step,
    run,
    sup_envelope_all,
    total_accumulation_error,
    zigzag_energy,
)


def _run(problem, name, iters, delta=1.0, variant="plain", record=False):
    cfg = SolverConfig(tableau=make_tableau(name), c=2.0, delta=delta,
                       max_iters=iters, variant=variant, record_iterates=record)
    return run(problem, cfg)


class _RecordingRegion:
    """A region that keeps every atom its lmo answers, in call order."""

    def __init__(self, region):
        self.lmo_of, self.atoms = region.lmo, []
        self.membership_violation = region.membership_violation

    def lmo(self, g):
        atom = self.lmo_of(g)
        self.atoms.append(atom)
        return atom


# Reference certificate values for the default schedule (c=2, delta=1),
# rounded to 4 decimals at the source; gate is +-1e-3 per entry.
CERT_REFERENCE = {
    ("midpoint", 1): (-0.3810, 1.1429),
    ("midpoint", 2): (-0.2222, 0.8889),
    ("rk44", 1): (0.2449, 0.5986, 0.5714, 0.3333),
    ("rk38", 1): (0.1758, 0.6409, 0.6818, 0.2500),
    ("rk5", 1): (0.1821, 0.0068, 0.8416, 0.3657, 0.9956, 0.2333),
}


def test_acceptance_01_certificate_reproduction():
    t0 = time.perf_counter()
    reports = {n: feasibility_certificate(make_tableau(n), 2.0, 1.0, 2)
               for n in ("midpoint", "rk44", "rk38", "rk5")}
    elapsed = time.perf_counter() - t0
    for (name, k), expected in CERT_REFERENCE.items():
        z = dict(reports[name].z_by_k)[k]
        err = np.max(np.abs(np.asarray(z) - np.asarray(expected)))
        assert err <= 1e-3, f"{name} z({k}) off by {err:.2e}: got {z}"
    assert elapsed < 1.0, f"certificates took {elapsed:.2f}s"


def test_acceptance_02_certificate_monotonicity():
    for name in TABLEAU_NAMES:
        report = feasibility_certificate(make_tableau(name), 2.0, 1.0, 200)
        assert report.sup_norm_monotone, f"{name}: sup norm not monotone over k=1..200"


def test_acceptance_03_lower_bound_band():
    # On the interval toy every tableau keeps the O(1/k) rate: k times the
    # sup-envelope of |x| stays <= 10 over k in [1e3, 1e5]. The floor of
    # 0.05 (|x| not beaten below order 1/k) holds only for weights with a
    # positive cancellability margin. With margin 0 the stages can query
    # atoms s_i whose signed weights sum to zero. The weighted atom pulls
    # sum b_i s_i gamma_i then form a difference of schedule fractions; for
    # rk38, whose signed moments sum b_i s_i c_i^m also vanish for m = 1, 2,
    # a third difference of 1/(2+k+c), so |x| falls like k^-2 (rk44 has
    # sum b_i s_i c_i = 1/6 and stays near 1/(3k)). A zero-margin tableau is
    # held to realising that cancellation at the atoms rk_fw_step queries
    # along its recorded run; its floor is reported, not gated.
    toy = make_scalar_huber(epsilon=1e-6)
    ks = np.arange(1000, 100001)
    sampled = np.linspace(1000, 99999, 25).astype(int)
    rows, pulls = [], {}
    for name in TABLEAU_NAMES:
        t0 = time.perf_counter()
        traj = _run(toy, name, 100000, record=True)
        xs = np.abs(np.array([float(x[0]) for x in traj.iterates]))
        band = ks * sup_envelope_all(xs)[1000:100001]
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"{name} run took {elapsed:.1f}s"
        t = make_tableau(name)
        margin = cancellability_margin(t.weights)
        rows.append((name, margin, float(band.min()), float(band.max())))
        if margin > 0:
            continue
        cfg = SolverConfig(tableau=t, c=2.0, delta=1.0)
        region = _RecordingRegion(toy.region)
        recording = ProblemInstance(toy.objective, region, toy.x0, toy.f_star, toy.label)
        worst = 0.0
        for k in sampled:
            region.atoms.clear()
            x_next, _ = rk_fw_step(traj.iterates[k], int(k), cfg, recording)
            assert np.array_equal(x_next, traj.iterates[k + 1]), f"{name}: replay differs at k={k}"
            assert len(region.atoms) == t.q, f"{name}: {len(region.atoms)} atoms at k={k}"
            pull = sum(w * a.dense() for w, a in zip(t.weights, region.atoms))
            worst = max(worst, float(np.max(np.abs(pull))))
        pulls[name] = worst
    table = "; ".join(f"{n} (margin {m:.3g}): k*env in [{lo:.3g}, {hi:.3g}]"
                      for n, m, lo, hi in rows)
    assert all(hi <= 10 for _, _, _, hi in rows), table
    assert all(0.05 <= lo for _, m, lo, _ in rows if m > 0), table
    assert all(p <= 1e-12 for p in pulls.values()), (
        f"zero-margin stage atoms do not cancel, max |sum b_i s_i|: {pulls}; {table}")


def test_acceptance_04_rate_slope():
    # Certified suboptimality (the gap series) decays like 1/k on the
    # triangle; the log-log slope over k in [1e2, 1e4] must say so.
    tri = make_triangle()
    slopes = {}
    for name in TABLEAU_NAMES:
        traj = _run(tri, name, 10000)
        slopes[name] = fit_rate_slope(traj.gaps, 100, 10000)
    assert all(-1.3 <= s <= -0.8 for s in slopes.values()), f"slopes: {slopes}"


def test_acceptance_05_flow_tracking():
    # rk44 at delta=0.01 must track the closed-form interval flow to 1e-3
    # up to (not including) the absorption time.
    toy = make_scalar_huber(epsilon=1e-6)
    t_abs = absorption_time(1.0, 2.0)
    iters = int(t_abs / 0.01)
    traj = _run(toy, "rk44", iters, delta=0.01, record=True)
    sup = max(abs(abs(float(x[0])) - huber_flow_exact(1.0, 2.0, k * 0.01))
              for k, x in enumerate(traj.iterates))
    assert sup <= 1e-3, f"sup-norm tracking error {sup:.3e}"


def test_acceptance_06_discretization_order():
    # Early window on the triangle where the oracle output is constant:
    # euler's accumulation error is first order in delta, rk44 is no worse.
    tri = make_triangle()
    ref = reference_trajectory(tri, c=2.0, delta_ref=0.002, t_end=0.2)

    def tae(name, delta):
        traj = _run(tri, name, int(round(0.2 / delta)), delta=delta, record=True)
        return max(err for _, err in total_accumulation_error(traj, ref))

    e_coarse, e_fine = tae("euler", 0.1), tae("euler", 0.05)
    r_coarse, r_fine = tae("rk44", 0.1), tae("rk44", 0.05)
    ratio = e_coarse / e_fine
    assert 1.6 <= ratio <= 2.4, f"euler TAE halving ratio {ratio:.3f}"
    assert r_coarse <= e_coarse and r_fine <= e_fine, (
        f"rk44 TAE ({r_coarse:.3e}, {r_fine:.3e}) vs euler ({e_coarse:.3e}, {e_fine:.3e})")


def test_acceptance_07_zigzag_delta_scaling():
    # Shrinking delta by 10x should shrink mean zigzag energy to between
    # 5% and 30% of its previous value, for both window sizes, over a
    # horizon of 100 time units (iterations = 100/delta).
    prob = make_sensing_logistic(seed=17)
    energy = {}
    for delta in (1.0, 0.1, 0.01):
        traj = _run(prob, "euler", int(round(100 / delta)), delta=delta, record=True)
        energy[delta] = {w: zigzag_energy(traj.iterates, w).mean_energy for w in (5, 20)}
    ratios = {f"W={w} {a}->{b}": energy[b][w] / energy[a][w]
              for w in (5, 20) for a, b in ((1.0, 0.1), (0.1, 0.01))}
    bad = {k: round(v, 4) for k, v in ratios.items() if not 0.05 <= v <= 0.3}
    assert not bad, f"ratios outside [0.05, 0.3]: {bad} (all: { {k: round(v, 4) for k, v in ratios.items()} })"


def test_acceptance_08_zigzag_multistep_ordering():
    # At delta=1 the multistep schemes should zigzag strictly less,
    # measured at window 5 on the same seeded instance.
    t0 = time.perf_counter()
    prob = make_sensing_logistic(seed=17)
    e = {name: zigzag_energy(_run(prob, name, 100, record=True).iterates, 5).mean_energy
         for name in ("euler", "midpoint", "rk44")}
    elapsed = time.perf_counter() - t0
    assert e["rk44"] < e["midpoint"] < e["euler"], (
        f"rk44 {e['rk44']:.2f}, midpoint {e['midpoint']:.2f}, euler {e['euler']:.2f}")
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_acceptance_09_per_step_decrease_bound():
    tri = make_triangle()
    traj = _run(tri, "rk44", 1001)
    # L=1 (quadratic), diameter D=2; composition Lipschitz bound from the
    # same diameter.
    d4 = decrease_bound_d4(make_tableau("rk44"), 2.0, l=1.0, l2=2.0, d=2.0)
    violations = [k for k in decrease_bound_check(traj, d4, 2.0) if k <= 1000]
    assert violations == [], f"decrease inequality failed at k={violations[:10]}"


def test_acceptance_10_gradient_checks():
    rng = np.random.default_rng(100)

    def l1_points(n, alpha, count):
        pts = rng.standard_normal((count, n))
        scale = rng.uniform(0.05, 0.95, size=count) * alpha
        return [p / np.abs(p).sum() * s for p, s in zip(pts, scale)]

    g = rng.standard_normal((30, 8))
    feats = rng.standard_normal((40, 6))
    obs = np.array([(i, j) for i in range(4) for j in range(3)])
    cases = [
        (DistanceSq(np.array([0.2, 0.3])),
         [rng.dirichlet((1, 1, 1)) @ np.array([[0, 0], [1, 0], [0, 1.0]])
          for _ in range(100)]),
        (LeastSquares(g, g @ rng.standard_normal(8)), l1_points(8, 5.0, 100)),
        (Logistic(feats, np.where(rng.standard_normal(40) >= 0, 1.0, -1.0)),
         l1_points(6, 3.0, 100)),
        (HuberScalar(0.5), [np.array([v]) for v in rng.uniform(-1, 1, 100)]),
        (HuberMatrix(obs, rng.uniform(1, 5, len(obs)), 10.0, (4, 5)),
         [rng.standard_normal((4, 5)) * s for s in rng.uniform(0.2, 3.0, 100)]),
    ]
    for objective, points in cases:
        worst = check_gradient(objective, points)
        name = type(objective).__name__
        assert worst <= 1e-5, f"{name}: max gradient error {worst:.2e}"


def test_acceptance_11_feasibility_preservation():
    # Tableaus whose certificates stay in [0, 1] must never leave the ball;
    # midpoint (whose certificate does not) is reported, not gated.
    sen = make_sensing(seed=0)
    worst = {}
    for name in ("euler", "rk44", "rk38", "rk5"):
        traj = _run(sen, name, 10000)
        worst[name] = max(traj.violations)
    midpoint = max(_run(sen, "midpoint", 10000).violations)
    print(f"midpoint max violation (not gated): {midpoint:.3e}")
    assert all(v <= 1e-9 for v in worst.values()), f"violations: {worst}"


def test_acceptance_12_variant_sanity():
    sen = make_sensing(seed=0)
    ls_rk = _run(sen, "rk44", 1000, variant="line_search")
    ls_eu = _run(sen, "euler", 1000, variant="line_search")
    assert max(np.diff(ls_rk.fs)) <= 1e-12, "rk44 line search not monotone"
    assert max(np.diff(ls_eu.fs)) <= 1e-12, "euler line search not monotone"

    mom = _run(sen, "euler", 1000, variant="momentum")
    assert max(mom.violations) <= 1e-9, f"momentum violation {max(mom.violations):.3e}"

    plain = _run(sen, "euler", 1000)
    assert ls_rk.fs[-1] <= plain.fs[-1], (
        f"rk44+line_search f(1000)={ls_rk.fs[-1]:.2f} vs plain euler f(1000)={plain.fs[-1]:.2f}")
