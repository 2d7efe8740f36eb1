"""Acceptance suite: the ten headline checks, one test per criterion.

Each test prints a [criterion N] line with the measured numbers before
asserting, so a failed run still reports what was observed.
"""

import json
import time

import numpy as np

from tgeo import (
    bundle_sectional_curvature,
    destabilizing_field,
    duschek_integrand_general,
    geodesic_field_obstruction,
    half_curvature,
    hopf_field,
    horizontal_extension_field,
    is_killing,
    killing_canonical_frames,
    propagate_fiber_frame,
    random_hopf_combination,
    reduced_integrand,
    sasakian_identity_residual,
    second_form_direct,
    second_form_lemma,
    shape_apply_array,
    singular_decomposition,
    stability_verdict,
    submanifold_plane_curvature,
    xi_tangential_lift,
)
from tgeo.manifold import (GS_PIVOT_TOL, _gram_schmidt_stack, gram_schmidt_rows,
                           unit_rows)
from tgeo.sasaki import (
    bundle_sectional_curvature_array,
    submanifold_plane_curvature_array,
    tangential_lift_array,
    xi_normal_lift_array,
)
from tgeo.cli import main as cli_main

from conftest import frame_rows, random_frame, random_tangent, seeded_points


def stream_draws(seed, start, count, shape):
    """Row idx: the standard normals of shape ``shape`` that the stream
    (seed, start + idx) gives, one stream per sample."""
    draws = np.empty((count,) + shape)
    for idx, out in enumerate(draws):
        np.random.default_rng((seed, start + idx)).standard_normal(out=out)
    return draws


def test_criterion_1_totally_geodesic_unit_hopf():
    """Hopf on S^3, S^5, S^7 at r=1: both second-form routes vanish. Each
    route takes the 200 points of a sphere as one stack."""
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3):
        xi = hopf_field(m, 1.0)
        points = [xi.sphere.random_point(np.random.default_rng((0, idx)))
                  for idx in range(200)]
        coords = np.array([p.coords for p in points])
        sd = singular_decomposition(xi, coords)
        worst = max(worst,
                    np.max(np.abs(second_form_lemma(xi, coords, sd))),
                    np.max(np.abs(second_form_direct(xi, coords, sd))))
    elapsed = time.perf_counter() - t0
    status = "PASS" if (worst < 1e-4 and elapsed < 30.0) else "FAIL"
    print(f"[criterion 1] max |Omega| both routes over 3x200 points: "
          f"{worst:.3e} in {elapsed:.1f}s: {status}")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_1_past_s15(tmp_path):
    """Hopf on unit S^31 through the CLI: both routes stay below the
    criterion-1 threshold."""
    out = tmp_path / "s31.json"
    assert cli_main(["verify", "totally-geodesic", "--dim", "31",
                     "--samples", "4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())[0]
    assert rep["verdict"] == "pass"
    assert rep["max_residual"] < 1e-4  # the larger of the two routes


def test_criterion_2_nonunit_radius_pattern(tmp_path):
    """S^3(2): Omega concentrated in the (s | m+s, 0) slots; the direct-route
    value matches exactly one of the two closed-form candidates."""
    xi = hopf_field(1, 2.0)
    K = 0.25
    cand_a = 0.5 * K * (1 - K) / (1 + K)           # 0.075
    cand_b = K * (1 - K) / (2 * (1 + K) ** 1.5)    # 0.06708...
    p = xi.sphere.random_point(np.random.default_rng((2, 0)))
    kd = killing_canonical_frames(xi, p)
    om = second_form_direct(xi, p.coords[None], kd)[0]
    mask = np.zeros_like(om, dtype=bool)
    mask[0, 2, 0] = mask[0, 0, 2] = mask[1, 1, 0] = mask[1, 0, 1] = True
    peak = float(np.max(np.abs(om[mask])))
    off = float(np.max(np.abs(np.where(mask, 0.0, om))))
    match_a = abs(peak - cand_a) <= 1e-4
    match_b = abs(peak - cand_b) <= 1e-4
    status = "PASS" if (match_a != match_b) and off < 1e-6 else "FAIL"
    which = "first form" if match_a else ("second form" if match_b else "neither")
    print(f"[criterion 2] pattern peak {peak:.6f} off-pattern {off:.2e}; "
          f"matches {which} (candidates {cand_a:.6f} / {cand_b:.6f}): {status}")
    assert match_a and not match_b  # the 0.075 candidate, uniquely
    assert off < 1e-6
    # and the CLI report states which form matched
    out = tmp_path / "crit2.json"
    code = cli_main(["verify", "totally-geodesic", "--field", "hopf",
                     "--dim", "3", "--radius", "2", "--samples", "3",
                     "--out", str(out)])
    assert code == 1
    notes = " ".join(json.loads(out.read_text())[0]["notes"])
    assert "matches: (1/2) K (1-K) / (1+K)" in notes


def test_criterion_3_curvature_bounds():
    """10^4 xi(M)-planes per sphere inside [1/4, 5/4]; designated sections
    exact; bundle scan of T1 S^3 inside [0, 5/4]. Plane idx draws from its
    own stream; each scan evaluates its planes as one stack."""
    t0 = time.perf_counter()
    results = []
    for m in (1, 2):
        xi = hopf_field(m, 1.0)
        sphere = xi.sphere
        # per plane: random_point, then two raw directions orthonormalized
        draws = stream_draws(3, 0, 10_000, (3, sphere.ambient_dim))
        p = sphere.stacked_points(draws[:, 0])
        pair = _gram_schmidt_stack(sphere.project_array(p, draws[:, 1:]),
                                   pivot_tol=GS_PIVOT_TOL, drop=False)
        K = submanifold_plane_curvature_array(xi, p, pair[:, 0], pair[:, 1])
        lo, hi = float(np.min(K)), float(np.max(K))
        results.append((2 * m + 1, lo, hi))
        assert lo >= 0.25 - 1e-6
        assert hi <= 1.25 + 1e-6

    xi = hopf_field(1, 1.0)
    sphere = xi.sphere
    p = sphere.random_point(np.random.default_rng((3, 10_000))).coords
    xiv = xi.value_array(p)
    candidates = np.vstack([xiv, sphere.project_array(p, np.eye(4))])
    w = gram_schmidt_rows(candidates, pivot_tol=1e-6)[1]
    phi_w = unit_rows(-shape_apply_array(xi, p, w)[None])[0]
    k_xi, k_phi = submanifold_plane_curvature_array(
        xi, np.stack((p, p)), np.stack((xiv, w)), np.stack((w, phi_w))).tolist()
    assert abs(k_xi - 0.25) < 1e-10
    assert abs(k_phi - 1.25) < 1e-10

    # per plane: random_point, then the unit anchor u and the parts hx, vx,
    # hy, vy of X = hx^h + vx^t and Y = hy^h + vy^t
    draws = stream_draws(3, 10 ** 9, 2000, (6, 4))
    q = sphere.stacked_points(draws[:, 0])
    t = sphere.project_array(q[:, None], draws[:, 1:])
    u = unit_rows(t[:, 0])
    vx, vy = (tangential_lift_array(v, u) for v in (t[:, 2], t[:, 4]))
    Kb = bundle_sectional_curvature_array(sphere, q, u, t[:, 1], vx, t[:, 3], vy)
    blo, bhi = float(np.min(Kb)), float(np.max(Kb))
    elapsed = time.perf_counter() - t0
    ranges = "; ".join(f"S^{d}: [{lo:.6f}, {hi:.6f}]" for d, lo, hi in results)
    ok = blo >= -1e-6 and bhi <= 1.25 + 1e-6
    print(f"[criterion 3] {ranges}; sections {k_xi:.12f}/{k_phi:.12f}; "
          f"bundle [{blo:.6f}, {bhi:.6f}] in {elapsed:.2f}s: "
          f"{'PASS' if ok else 'FAIL'}")
    assert blo >= -1e-6
    assert bhi <= 1.25 + 1e-6


def test_criterion_4_closed_form_vs_direct_curvature():
    xi = hopf_field(2, 1.0)
    sphere = xi.sphere
    worst = 0.0
    for idx in range(500):
        rng = np.random.default_rng((4, idx))
        p = sphere.random_point(rng)
        fr = random_frame(p, rng)
        K = submanifold_plane_curvature(xi, fr[0], fr[1])
        Kq = bundle_sectional_curvature(xi_tangential_lift(xi, fr[0]),
                                        xi_tangential_lift(xi, fr[1]))
        worst = max(worst, abs(K - Kq))
    print(f"[criterion 4] closed form vs curvature-tensor route on 500 pairs: "
          f"{worst:.3e}: {'PASS' if worst < 1e-8 else 'FAIL'}")
    assert worst < 1e-8


def test_criterion_5_s3_stability_pointwise():
    """Integrand >= |eta|^2 / 2 - 1e-3 over 100 fields x 100 points."""
    rep = stability_verdict(dim=3, samples=100, fiber_steps=64, seed=5)
    margin_note = rep.notes[0]
    status = "PASS" if rep.verdict == "stable" else "FAIL"
    print(f"[criterion 5] {margin_note}: {status}")
    assert rep.verdict == "stable"
    assert rep.samples == 100 * 100
    assert rep.max_residual <= 1e-3


def test_criterion_6_destabilizing_ratio():
    """(5-2n)/2 along >= 64 fiber samples on S^5 and S^7, with vanishing
    fiber derivative and coefficient gradients."""
    lines = []
    for m, target in ((2, -1.5), (3, -3.5)):
        xi = hopf_field(m, 1.0)
        sphere = xi.sphere
        p0 = sphere.random_point(np.random.default_rng((6, m)))
        fiber = propagate_fiber_frame(p0, steps=64)
        eta = destabilizing_field(fiber)
        max_dev = 0.0
        d0_resid = 0.0
        assert fiber.node_count >= 64
        for node in range(fiber.node_count):
            q = fiber.points[node]
            nv = eta.value_array(q)
            red = reduced_integrand(xi, eta, sphere.stacked_points(q[None]))[0]
            max_dev = max(max_dev, abs(red / float(nv @ nv) - target))
            d0 = eta.covariant_derivative_array(q, fiber.e0s[node])
            d0_resid = max(d0_resid, float(np.linalg.norm(d0)))
        rep = stability_verdict(2 * m + 1, samples=100, fiber_steps=64, seed=6)
        lines.append(f"S^{2*m+1}: ratio dev {max_dev:.2e}, "
                     f"fiber derivative {d0_resid:.2e}, verdict {rep.verdict}")
        assert max_dev < 1e-3
        assert d0_resid < 1e-4
        assert rep.verdict == "unstable"
    print(f"[criterion 6] {'; '.join(lines)}: PASS")


def test_criterion_7_integrand_term_identities():
    """Connection-term and curvature-term identities, each at 1e-3, S^3 and
    S^5. The curvature side: |eta~|^2 * sum_K = (n - 3/2) |eta|^2."""
    worst_conn = worst_curv = 0.0
    for label, xi, builder in (
            ("S3", hopf_field(1, 1.0),
             lambda s: random_hopf_combination(np.random.default_rng((7, s)))),
            ("S5", hopf_field(2, 1.0),
             lambda s: horizontal_extension_field(
                 hopf_field(2, 1.0).sphere,
                 np.random.default_rng((7, s)).standard_normal(6)))):
        sphere = xi.sphere
        n = sphere.dim - 1
        for s in range(5):
            eta = builder(s)
            rng = np.random.default_rng((8, s))
            for _ in range(5):
                p = sphere.random_point(rng)
                db = duschek_integrand_general(xi, eta, p)
                xiv = xi.value_array(p.coords)
                rows = gram_schmidt_rows(
                    np.vstack([xiv, sphere.project_array(p.coords,
                                                         np.eye(sphere.ambient_dim))]),
                    pivot_tol=1e-6)
                e0 = eta.value_array(p.coords)
                d0 = eta.covariant_derivative_array(p.coords, rows[0])
                conn_expect = 4.0 * float(d0 @ d0) - float(e0 @ e0)
                for row in rows[1:]:
                    d = eta.covariant_derivative_array(p.coords, row)
                    conn_expect += 2.0 * float(d @ d)
                worst_conn = max(worst_conn, abs(db.connection_term - conn_expect))
                curv_expect = (n - 1.5) * float(e0 @ e0)
                worst_curv = max(worst_curv,
                                 abs(db.eta_tilde_norm_sq * db.curvature_term
                                     - curv_expect))
    ok = worst_conn < 1e-3 and worst_curv < 1e-3
    print(f"[criterion 7] connection-term identity {worst_conn:.3e}, "
          f"curvature-term identity {worst_curv:.3e}: {'PASS' if ok else 'FAIL'}")
    assert worst_conn < 1e-3
    assert worst_curv < 1e-3


def test_criterion_8_structural_identities():
    """Codazzi, Jacobi, Killing, Sasakian, lift duality over 100 points on
    each of S^3(1), S^5(1), S^3(2); Sasakian must fail on S^3(2)."""
    fields = [hopf_field(1, 1.0), hopf_field(2, 1.0), hopf_field(1, 2.0)]
    codazzi = jacobi = killing = duality = 0.0
    sasakian_unit = 0.0
    sasakian_r2_min = np.inf
    for xi in fields:
        sphere = xi.sphere
        unit = abs(sphere.radius - 1.0) < 1e-12
        for idx in range(100):
            rng = np.random.default_rng((88, idx))
            p = sphere.random_point(rng)
            X = random_tangent(p, rng)
            Y = random_tangent(p, rng)
            lhs = (half_curvature(xi, p.coords, X.vec, Y.vec)
                   - half_curvature(xi, p.coords, Y.vec, X.vec))
            rhs = sphere.curvature_array(X.vec, Y.vec, xi.value_array(p.coords))
            codazzi = max(codazzi, float(np.linalg.norm(lhs - rhs)))
            killing = max(killing, is_killing(xi, p.coords[None])[0])
            from tgeo import jacobi_relation_residual
            jacobi = max(jacobi, jacobi_relation_residual(xi, p.coords[None])[0])
            tau = xi_tangential_lift(xi, X)
            _, nu_h, nu_v = xi_normal_lift_array(xi, p.coords, Y.vec[None])
            duality = max(duality, abs(float(tau.horiz.vec @ nu_h[0]
                                             + tau.vert.vec @ nu_v[0])))
            if idx < 10:  # the Sasakian check is the costly one
                resid = sasakian_identity_residual(xi, p.coords[None])[0]
                if unit:
                    sasakian_unit = max(sasakian_unit, resid)
                else:
                    sasakian_r2_min = min(sasakian_r2_min, resid)
    ok = (codazzi < 1e-4 and jacobi < 1e-10 and killing < 1e-10
          and duality < 1e-10 and sasakian_unit < 1e-4 and sasakian_r2_min > 0.1)
    print(f"[criterion 8] codazzi {codazzi:.2e} (FD), jacobi {jacobi:.2e}, "
          f"killing {killing:.2e}, duality {duality:.2e}, "
          f"sasakian unit {sasakian_unit:.2e} / r=2 min {sasakian_r2_min:.3f}: "
          f"{'PASS' if ok else 'FAIL'}")
    assert codazzi < 1e-4          # finite-difference tolerance
    assert jacobi < 1e-10          # analytic
    assert killing < 1e-10
    assert duality < 1e-10
    assert sasakian_unit < 1e-4
    assert sasakian_r2_min > 0.1   # the identity must fail off unit radius


def test_criterion_9_svd_property_suite():
    """Frame relations, ordering, canonical pairing, covariant normality,
    all < 1e-8 with analytic Jacobians."""
    from tgeo import covariant_normality_residual
    worst = 0.0
    for m, r in ((1, 1.0), (2, 1.0), (3, 1.0), (1, 2.0)):
        xi = hopf_field(m, r)
        sphere = xi.sphere
        for idx in range(20):
            rng = np.random.default_rng((9, idx))
            p = sphere.random_point(rng)
            lam, e, f = frame_rows(singular_decomposition(xi, p.coords[None]))
            ae = shape_apply_array(xi, p.coords, e)
            worst = max(worst, float(np.max(np.abs(ae - lam[:, None] * f))))
            af = xi_normal_lift_array(xi, p.coords, f)[1]  # A* f_i
            for i in range(len(lam)):
                worst = max(worst, float(np.linalg.norm(af[i] - lam[i] * e[i])))
            assert lam[0] == 0.0
            assert np.all(np.diff(lam[1:]) <= 1e-14)
            worst = max(worst, covariant_normality_residual(xi, p))
            mm = (sphere.dim - 1) // 2
            klam, ke, kf = frame_rows(killing_canonical_frames(xi, p))
            ka = shape_apply_array(xi, p.coords, ke)
            for a in range(1, mm + 1):
                worst = max(
                    worst,
                    float(np.linalg.norm(ka[a] - klam[a] * ke[mm + a])),
                    float(np.linalg.norm(ka[mm + a] + klam[a] * ke[a])),
                    float(np.linalg.norm(kf[a] - ke[mm + a])),
                    float(np.linalg.norm(kf[mm + a] + ke[a])))
    print(f"[criterion 9] SVD suite worst residual: {worst:.3e}: "
          f"{'PASS' if worst < 1e-8 else 'FAIL'}")
    assert worst < 1e-8


def test_criterion_10_meridian_negative_control(meridian3):
    """The meridian field on the unit 3-sphere is not totally geodesic and its
    obstruction matches -(1/2) Lambda (cot^2 + 1) <e_a, f_s>."""
    worst_gap = 0.0
    P = np.array([p.coords for p in seeded_points(meridian3, 25, seed=10)])
    sd = singular_decomposition(meridian3, P)
    peak = np.max(np.abs(second_form_lemma(meridian3, P, sd)))
    for k, obs in enumerate(geodesic_field_obstruction(meridian3, P, sd)):
        ct = float(P[k, 0])
        factor = ct * ct / (1.0 - ct * ct) + 1.0
        lam, e, f = frame_rows(sd, k)
        scale = 1.0 / np.sqrt(1.0 + lam[1:] ** 2)
        expected = -0.5 * np.outer(scale, scale) * factor * (f[1:] @ e[1:].T)
        worst_gap = max(worst_gap, float(np.max(np.abs(obs - expected))))
    ok = peak > 1e-2 and worst_gap < 1e-4
    print(f"[criterion 10] meridian max |Omega| {peak:.4f} (fails totally "
          f"geodesic), closed-form gap {worst_gap:.3e}: {'PASS' if ok else 'FAIL'}")
    assert peak > 1e-2
    assert worst_gap < 1e-4
