"""Stacked variation kernels against a one-point reference.

The reference functions below are the one-point formulas the variation
layer used before it took stacks, written with ``@``, ``np.outer`` and
``np.linalg.norm``, and the one-matrix ``ref_gram_schmidt``. The stacked
fields and kernels promise the same bits under the interpreter and numpy
the benchmark digests were recorded with, and a last-bit margin elsewhere.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import tgeo.manifold as manifold
import tgeo.variation as variation
from tgeo import (
    DegenerateInputError,
    PreconditionError,
    SphereSpec,
    VariationField,
    complex_structure,
    destabilizing_field,
    destabilizing_integrand,
    hopf_field,
    horizontal_extension_field,
    integrate_over_sphere,
    propagate_fiber_frame,
    random_hopf_combination,
    reduced_integrand,
    s3_stable_form,
    sphere_volume,
    stability_verdict,
)
from tgeo.cli import main
from tgeo.variation import (_LI, _LJ, _LK, _family_stack, _fiber_residual_rows,
                            _fiber_residuals, _horizontal_seed)

from conftest import assert_identical, ref_gram_schmidt


# -- one-point reference ---------------------------------------------------------


def ref_combination(seed):
    """Value and Jacobian of ``random_hopf_combination(default_rng(seed))``,
    from the same coefficient draws."""
    rng = np.random.default_rng(seed)
    coeffs = [(float(rng.standard_normal()), rng.standard_normal(3),
               rng.standard_normal((3, 4)), rng.uniform(0.0, 2.0 * np.pi, 3))
              for _ in range(2)]

    def cval(q, c):
        a0, b, W, ph = c
        return a0 + float(b @ np.sin(W @ q + ph))

    def cgrad(q, c):
        a0, b, W, ph = c
        return (b * np.cos(W @ q + ph)) @ W

    def value(q):
        return cval(q, coeffs[0]) * (_LJ @ q) + cval(q, coeffs[1]) * (_LK @ q)

    def jacobian(q):
        return (np.outer(_LJ @ q, cgrad(q, coeffs[0])) + cval(q, coeffs[0]) * _LJ
                + np.outer(_LK @ q, cgrad(q, coeffs[1])) + cval(q, coeffs[1]) * _LK)

    return value, jacobian


def ref_horizontal(w):
    J = complex_structure(len(w))
    jw = J @ w

    def value(q):
        jq = J @ q
        return w - (w @ q) * q - (w @ jq) * jq

    def jacobian(q):
        jq = J @ q
        return (-np.outer(q, w) - (w @ q) * np.eye(len(q))
                + np.outer(jq, jw) - (w @ jq) * J)

    return value, jacobian


def ref_derivative(jacobian, p, x):
    d = jacobian(p) @ x
    return d - (d @ p) / 1.0 * p


def ref_reduced(value, jacobian, p):
    """The reduced integrand for the unit Hopf field at one point."""
    J = complex_structure(len(p))
    n = len(p) - 2
    xiv = (J @ p) / 1.0
    eta0 = value(p)
    assert abs(float(eta0 @ xiv)) <= 1e-8 * (np.linalg.norm(eta0) + 1.0)
    eye = np.eye(len(p))
    candidates = np.vstack([xiv, eye - np.outer(eye @ p, p) / 1.0])
    rows = ref_gram_schmidt(candidates, pivot_tol=1e-6, drop=True)
    d0 = ref_derivative(jacobian, p, rows[0])
    total = 4.0 * float(d0 @ d0)
    for row in rows[1:]:
        d = ref_derivative(jacobian, p, row)
        total += 2.0 * float(d @ d)
    return total - (2.0 * n - 1.0) / 2.0 * float(eta0 @ eta0)


def ref_s3_form(value, jacobian, p):
    e0, e1, e2 = _LI @ p, _LJ @ p, _LK @ p
    eta0 = value(p)
    d0 = ref_derivative(jacobian, p, e0)
    total = 4.0 * float(d0 @ d0)
    for ea in (e1, e2):
        da = ref_derivative(jacobian, p, ea)
        for esig, lsig in ((e1, _LJ), (e2, _LK)):
            g = float(da @ esig) + float(eta0 @ (lsig @ ea))
            total += 2.0 * g * g
    nsq = float(eta0 @ eta0)
    return total + 0.5 * nsq, nsq


def ref_seed(q):
    """The destabilizing seed from every ambient basis vector as a
    candidate."""
    J = complex_structure(len(q))
    return ref_gram_schmidt(np.vstack([q, J @ q, np.eye(len(q))]),
                            pivot_tol=1e-6, drop=True)[2]


def ref_point(q):
    """``SphereSpec.point`` on the unit sphere."""
    return q * (1.0 / np.linalg.norm(q))


def ref_fiber(p0, steps):
    """``propagate_fiber_frame``'s RK4 loop with the fiber point gamma(t)
    and J gamma(t) rebuilt in each right-hand-side call: frames, points,
    e0s and residuals."""
    J = complex_structure(p0.sphere.ambient_dim)
    p0c = p0.coords
    jp0 = J @ p0c
    v = _horizontal_seed(p0c[None], J)[0]
    Y = np.array([v, -J @ v])
    S = np.array([[0.0, -1.0],
                  [1.0, 0.0]])
    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    h = 2.0 * np.pi / (steps * variation.RK_SUBSTEPS)

    def gamma(t):
        return math.cos(t) * p0c + math.sin(t) * jp0

    def rhs(t, state):
        g = gamma(t)
        gp = J @ g
        return S @ state - np.outer(state @ gp, g)

    frames = [Y]
    for i in range(steps):
        for s in range(variation.RK_SUBSTEPS):
            t0 = ts[i] + s * h
            k1 = rhs(t0, Y)
            k2 = rhs(t0 + 0.5 * h, Y + 0.5 * h * k1)
            k3 = rhs(t0 + 0.5 * h, Y + 0.5 * h * k2)
            k4 = rhs(t0 + h, Y + h * k3)
            Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        frames.append(Y)
    frames = np.array(frames)
    points = np.array([gamma(t) for t in ts])
    return frames, points, points @ J.T, _fiber_residuals(J, ts, points, frames)


def ref_fiber_residuals(J, ts, points, frames):
    """``_fiber_residuals`` with the orthonormality Gram matrix and the two
    5-point fiber rows taken one node at a time."""
    steps = len(ts) - 1
    closure = float(np.max(np.linalg.norm(frames[-1] - frames[0], axis=1)))
    ortho = []
    for i in range(steps + 1):
        stack = np.vstack([points[i], points[i] @ J.T, frames[i]])
        gram = stack @ stack.T
        ortho.append(np.max(np.abs(gram - np.eye(len(stack)))))
    E = frames[:steps]
    dt = 2.0 * np.pi / steps
    dE = (-np.roll(E, -2, axis=0) + 8.0 * np.roll(E, -1, axis=0)
          - 8.0 * np.roll(E, 1, axis=0) + np.roll(E, 2, axis=0)) / (12.0 * dt)
    fiber = []
    for i in range(steps):
        nab = dE[i] - np.outer(dE[i] @ points[i], points[i])
        fiber += [np.linalg.norm(nab[0] + E[i, 1]), np.linalg.norm(nab[1] - E[i, 0])]
    JA = frames @ J.T
    horiz = np.concatenate([np.linalg.norm(JA[:, 0] + frames[:, 1], axis=1),
                            np.linalg.norm(JA[:, 1] - frames[:, 0], axis=1)])
    return {"closure": closure, "orthonormality": float(np.max(ortho)),
            "fiber_rows": float(np.max(fiber)),
            "horizontal_rows": float(np.max(horiz))}


def unit_points(ambient, count, seed):
    raw = np.random.default_rng(seed).standard_normal((count, ambient))
    return np.array([ref_point(q) for q in raw])


# -- stacked fields ----------------------------------------------------------------


def _stacked_fields():
    w6 = np.random.default_rng(30).standard_normal(6)
    return {
        "hopf-s3": hopf_field(1),
        "hopf-s7-r2": hopf_field(3, 2.0),
        "hopf-s15": hopf_field(7),
        "hopf-combination": random_hopf_combination(np.random.default_rng(31)),
        "horizontal-s5": horizontal_extension_field(SphereSpec(6, 1.0), w6),
    }


@pytest.mark.parametrize("name", list(_stacked_fields()))
def test_stacked_field_rows_equal_one_point_calls(name):
    field = _stacked_fields()[name]
    pts = field.sphere.radius * unit_points(field.sphere.ambient_dim, 40, 32)
    values = field.value_array(pts)
    jacs = field.jacobian_array(pts)
    assert values.shape == pts.shape
    assert jacs.shape == pts.shape + pts.shape[-1:]
    assert_identical(values, [field.value_array(p) for p in pts])
    assert_identical(jacs, [field.jacobian_array(p) for p in pts])


def test_horizontal_extension_takes_one_w_per_row():
    sphere = SphereSpec(8, 1.0)
    pts = unit_points(8, 25, 33)
    ws = np.random.default_rng(34).standard_normal((25, 8))
    field = horizontal_extension_field(sphere, ws)
    singles = [horizontal_extension_field(sphere, w) for w in ws]
    assert_identical(field.value_array(pts),
                     [f.value_array(p) for f, p in zip(singles, pts)])
    assert_identical(field.jacobian_array(pts),
                     [f.jacobian_array(p) for f, p in zip(singles, pts)])


@pytest.mark.parametrize("seed", [35, 36])
def test_fields_match_reference_formulas(seed):
    pts = unit_points(4, 30, seed)
    value, jacobian = ref_combination(seed)
    eta = random_hopf_combination(np.random.default_rng(seed))
    assert_identical(eta.value_array(pts), [value(p) for p in pts])
    assert_identical(eta.jacobian_array(pts), [jacobian(p) for p in pts])
    w = np.random.default_rng(seed).standard_normal(4)
    value, jacobian = ref_horizontal(w)
    eta = horizontal_extension_field(SphereSpec(4, 1.0), w)
    assert_identical(eta.value_array(pts), [value(p) for p in pts])
    assert_identical(eta.jacobian_array(pts), [jacobian(p) for p in pts])


# -- kernels ----------------------------------------------------------------------


def _kernel_cases():
    """(label, unit Hopf field, stacked eta, reference value, reference
    Jacobian) on S^3, S^5 and S^15."""
    cases = []
    for seed in (40, 41):
        value, jacobian = ref_combination(seed)
        cases.append((f"S3-combination-{seed}", hopf_field(1),
                      random_hopf_combination(np.random.default_rng(seed)),
                      value, jacobian))
    for m in (1, 2, 7):
        xi = hopf_field(m)
        w = np.random.default_rng((42, m)).standard_normal(xi.sphere.ambient_dim)
        value, jacobian = ref_horizontal(w)
        cases.append((f"S{2 * m + 1}-horizontal", xi,
                      horizontal_extension_field(xi.sphere, w), value, jacobian))
    return cases


@pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
def test_reduced_integrand_matches_reference(case):
    _, xi, eta, value, jacobian = case
    pts = unit_points(xi.sphere.ambient_dim, 50, 43)
    want = [ref_reduced(value, jacobian, p) for p in pts]
    assert_identical(reduced_integrand(xi, eta, pts), want)
    # a one-row stack gives its row's bits
    one = [reduced_integrand(xi, eta, p[None])[0] for p in pts[:5]]
    assert all(isinstance(v, float) for v in one)
    assert_identical(one, want[:5])


def test_reduced_integrand_with_collapsing_basis_candidates():
    """At q = e_k one projected basis vector vanishes outright and another
    collapses later; their zero rows add nothing."""
    xi = hopf_field(2)
    w = np.random.default_rng(44).standard_normal(6)
    value, jacobian = ref_horizontal(w)
    eta = horizontal_extension_field(xi.sphere, w)
    pts = np.vstack([np.eye(6), ref_point(np.array([1.0, 1.0, 0, 0, 0, 0])),
                     unit_points(6, 5, 45)])
    assert_identical(reduced_integrand(xi, eta, pts),
                     [ref_reduced(value, jacobian, p) for p in pts])


@pytest.mark.parametrize("seed", [46, 47])
def test_s3_stable_form_matches_reference(seed):
    pts = unit_points(4, 60, seed)
    value, jacobian = ref_combination(seed)
    eta = random_hopf_combination(np.random.default_rng(seed))
    form, nsq = s3_stable_form(eta, pts)
    want = np.array([ref_s3_form(value, jacobian, p) for p in pts])
    assert_identical(form, want[:, 0])
    assert_identical(nsq, want[:, 1])
    one = tuple(v[0] for v in s3_stable_form(eta, pts[:1]))
    assert isinstance(one[0], float) and isinstance(one[1], float)
    assert_identical(one, want[0])


@pytest.mark.parametrize("seed,first,count", [(0, 0, 4), (9, 5, 3)])
def test_stable_family_stack_rows_equal_each_field(seed, first, count):
    """Rows fi*samples + k of the stacked family are field fi's own call at
    its own point k."""
    samples = 6
    xi = hopf_field(1)
    fields = range(first, first + count)
    eta, pts = _family_stack(xi.sphere, seed, fields, samples)
    values, jacs = eta.value_array(pts), eta.jacobian_array(pts)
    red = reduced_integrand(xi, eta, pts)
    form, nsq = s3_stable_form(eta, pts)
    for n, fi in enumerate(fields):
        rows = slice(n * samples, (n + 1) * samples)
        rng = np.random.default_rng((seed, fi))
        random_hopf_combination(rng)
        p = xi.sphere.stacked_points(rng.standard_normal((samples, 4)))
        value, jacobian = ref_combination((seed, fi))
        assert_identical(pts[rows], p)
        assert_identical(values[rows], [value(q) for q in p])
        assert_identical(jacs[rows], [jacobian(q) for q in p])
        assert_identical(red[rows], [ref_reduced(value, jacobian, q) for q in p])
        want = np.array([ref_s3_form(value, jacobian, q) for q in p])
        assert_identical(form[rows], want[:, 0])
        assert_identical(nsq[rows], want[:, 1])


@pytest.mark.parametrize("rows,chunks", [(None, 1), (1, 7), (12, 4)],
                         ids=["default", "one-field", "two-fields"])
def test_stable_run_is_independent_of_the_chunk(monkeypatch, rows, chunks):
    """A chunk holds whole fields, at least one: 7 fields of 5 samples in
    one chunk, one per chunk, or two per chunk and one left over give the
    same report."""
    want = dataclasses.asdict(stability_verdict(
        3, field_count=7, samples=5, fiber_steps=64, seed=2))
    if rows is not None:
        monkeypatch.setattr(variation, "_S3_CHUNK_ROWS", rows)
    sizes = []
    real = variation.reduced_integrand

    def counted(xi, eta, p):
        sizes.append(len(p))
        return real(xi, eta, p)

    monkeypatch.setattr(variation, "reduced_integrand", counted)
    got = dataclasses.asdict(stability_verdict(
        3, field_count=7, samples=5, fiber_steps=64, seed=2))
    # the family's chunks, then the quadrature's 5 points
    assert sum(sizes[:-1]) == 35 and len(sizes) == chunks + 1
    for rep in (want, got):
        rep.pop("wall_time_s")
    assert got == want


@pytest.mark.parametrize("steps", [64, 130])
@pytest.mark.parametrize("m", [1, 2, 7, 15])
def test_fiber_frame_matches_reference_loop(m, steps):
    """130 steps run the fiber table in three blocks, the last one
    partial."""
    sphere = hopf_field(m).sphere
    p0 = sphere.random_point(np.random.default_rng((51, m)))
    fiber = propagate_fiber_frame(p0, steps=steps)
    frames, points, e0s, residuals = ref_fiber(p0, steps)
    assert_identical(fiber.frames, frames)
    assert_identical(fiber.points, points)
    assert_identical(fiber.e0s, e0s)
    J = complex_structure(sphere.ambient_dim)
    want = ref_fiber_residuals(J, fiber.ts, points, frames)
    for got in (fiber.residuals, residuals):
        assert list(got) == list(want)
        assert_identical(list(got.values()), list(want.values()))


def closed_form_fiber(m, steps):
    """The fiber's J, node times, points and closed-form frame pair on
    S^(2m+1): no RK4 loop, so any step count is cheap."""
    J = complex_structure(2 * m + 2)
    p0 = SphereSpec(2 * m + 2, 1.0).random_point(np.random.default_rng((52, m)))
    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    cos, sin = np.cos(ts)[:, None], np.sin(ts)[:, None]
    v = _horizontal_seed(p0.coords[None], J)[0]
    frames = np.stack([cos * v + sin * (J @ v), -cos * (J @ v) + sin * v], axis=1)
    return J, ts, cos * p0.coords + sin * (J @ p0.coords), frames


@pytest.mark.parametrize("node", [0, 1, 2, 62, 63, 64, 65, 127, 128, 197, 198,
                                  199, 200])
@pytest.mark.parametrize("m", [1, 7])
def test_fiber_residuals_across_node_blocks(m, node):
    """200 steps are four node blocks, the last one partial; a kink at a node
    near a block edge or the periodic seam sets every residual, and each
    must be the per-node reference's, so the halo of the 5-point stencil
    reaches across each edge and around the seam."""
    J, ts, points, frames = closed_form_fiber(m, 200)
    frames = frames.copy()
    frames[node] += 1e-3 * np.random.default_rng((53, node)).standard_normal(
        frames[node].shape)
    want = ref_fiber_residuals(J, ts, points, frames)
    got = _fiber_residuals(J, ts, points, frames)
    assert list(got) == list(want)
    assert_identical(list(got.values()), list(want.values()))
    # the kink sets them; node 200 is node 0 again, outside the periodic table
    assert got["orthonormality"] > 1e-4
    assert (got["fiber_rows"] > 1e-2) == (node < 200)


def test_fiber_residuals_memory_is_bounded_by_node_blocks():
    """At 20,000 steps on S^15 the residuals hold one node block at a time:
    tracemalloc's peak stays below 1 MB above entry (all nodes at once: 34
    MB), and the residuals are the per-node reference's."""
    J, ts, points, frames = closed_form_fiber(7, 20000)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        got = _fiber_residuals(J, ts, points, frames)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    want = ref_fiber_residuals(J, ts, points, frames)
    assert_identical(list(got.values()), list(want.values()))


@pytest.mark.parametrize("m", [1, 2, 7])
def test_destabilizing_integrand_matches_reference(m):
    """Seeds come from the raw quadrature point q, the integrand is taken
    at q renormalized onto the sphere."""
    xi = hopf_field(m)
    qs = unit_points(xi.sphere.ambient_dim, 40, (48, m))
    want = []
    for q in qs:
        value, jacobian = ref_horizontal(ref_seed(q))
        want.append(ref_reduced(value, jacobian, ref_point(q)))
    assert_identical(destabilizing_integrand(xi)(qs), want)


@pytest.mark.parametrize("m", [2, 7])
def test_fiber_residual_rows_match_reference(m):
    """The three per-node residuals of the instability run."""
    xi = hopf_field(m)
    sphere = xi.sphere
    target = (5.0 - 2.0 * (2 * m)) / 2.0
    fiber = propagate_fiber_frame(sphere.random_point(np.random.default_rng(49)),
                                  steps=64)
    eta = destabilizing_field(fiber)
    value, jacobian = ref_horizontal(fiber.frames[0, 0])
    J = complex_structure(sphere.ambient_dim)
    want = []
    for node in range(fiber.node_count):
        q = fiber.points[node]
        nv = value(q)
        red = ref_reduced(value, jacobian, ref_point(q))
        d0 = ref_derivative(jacobian, q, fiber.e0s[node])
        Dq = jacobian(q)
        grad = 0.0
        dirs = np.vstack([fiber.e0s[node], fiber.frames[node]])
        for w in fiber.frames[node]:
            jq = J @ q
            jw = J @ w
            f_w = w - (w @ q) * q - (w @ jq) * jq
            for X in dirs:
                dfw_x = (-(w @ X) * q - (w @ q) * X
                         + (jw @ X) * jq - (w @ jq) * (J @ X))
                grad = max(grad, abs(float((Dq @ X) @ f_w + nv @ dfw_x)))
        want.append((abs(red / float(nv @ nv) - target),
                     float(np.linalg.norm(d0)), grad))
    want = np.array(want)
    dev, d0_norm, grad = _fiber_residual_rows(xi, eta, fiber, target)
    assert_identical(dev, want[:, 0])
    assert_identical(d0_norm, want[:, 1])
    assert_identical(grad, want[:, 2])


def test_integrate_stack_equals_per_sample_calls():
    """The chunked estimate is the mean of one-point integrand calls at the
    per-index samples; 1,000 samples cross three chunk boundaries."""
    xi = hopf_field(1)
    sphere = xi.sphere
    eta = random_hopf_combination(np.random.default_rng(3))
    calls = []

    def stacked(q):
        calls.append(len(q))
        return reduced_integrand(xi, eta, sphere.stacked_points(q))

    res = integrate_over_sphere(stacked, sphere, 1000, 5)
    assert calls == [256, 256, 256, 232]
    vals = []
    for idx in range(1000):
        vec = np.random.default_rng((5, idx)).standard_normal(4)
        q = vec * (1.0 / np.linalg.norm(vec))
        vals.append(reduced_integrand(xi, eta, sphere.stacked_points(q[None]))[0])
    vol = sphere_volume(sphere)
    assert_identical([res.value, res.std_error],
                     [vol * float(np.mean(vals)),
                      vol * float(np.std(vals, ddof=1)) / np.sqrt(len(vals))])


def test_nan_integrand_names_its_sample(monkeypatch, capsys):
    """A NaN value in a later chunk is a FloatingPointError naming its
    sample, not a value the mean drops; through the CLI it exits 3."""
    xi = hopf_field(2)
    idx = 256 + 7
    seen = []

    def fn(q):
        vals = np.ones(len(q))
        if sum(seen) <= idx < sum(seen) + len(q):
            vals[idx - sum(seen)] = np.nan
        seen.append(len(q))
        return vals

    with pytest.raises(FloatingPointError, match="non-finite integrand: "
                       rf"quadrature sample {idx}, seed tuple \(4, {idx}\)") as err:
        integrate_over_sphere(fn, xi.sphere, 300, 4)
    assert err.value.row == idx

    monkeypatch.setattr(variation, "destabilizing_integrand",
                        lambda xi: lambda q: np.where(q[:, 0] > 0.9, np.nan, 1.0))
    draws = [np.random.default_rng((0, k)).standard_normal(6) for k in range(300)]
    first = next(k for k, d in enumerate(draws) if d[0] / np.linalg.norm(d) > 0.9)
    assert main(["variation", "--dim", "5", "--samples", "300"]) == 3
    assert (f"numerical failure: non-finite integrand: quadrature sample {first}, "
            f"seed tuple (0, {first})") in capsys.readouterr().err


def test_quadrature_memory_does_not_grow_with_samples():
    """The quadrature holds one chunk of samples at a time: on S^15 its
    tracemalloc peak over four chunks is one chunk's (about 3 MB) plus the
    values kept, 8 bytes a sample; drawn at once, it was about 12 MB."""
    xi = hopf_field(7)
    fn = destabilizing_integrand(xi)
    integrate_over_sphere(fn, xi.sphere, 8, 0)  # first-call allocations
    peaks = []
    for samples in (manifold._STREAM_CHUNK, 4 * manifold._STREAM_CHUNK):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            integrate_over_sphere(fn, xi.sphere, samples, 0)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 32_768, peaks


# -- the horizontal seed ----------------------------------------------------------


def test_horizontal_seed_reads_three_candidates():
    """Orthonormalizing q, J q, e_0, e_1, e_2 gives the seed of the
    full-candidate Gram-Schmidt: 1,000 seeded points spread over S^3 to
    S^15, and on each sphere q = e_0 (e_0 and e_1 = J e_0 both collapse)
    and q = e_2."""
    for m in range(1, 8):
        ambient = 2 * m + 2
        qs = [ref_point(np.random.default_rng(seed).standard_normal(ambient))
              for seed in range(m - 1, 1000, 7)]
        qs = np.vstack(qs + [np.eye(ambient)[0], np.eye(ambient)[2]])
        got = _horizontal_seed(qs, complex_structure(ambient))
        assert_identical(got, [ref_seed(q) for q in qs])
        assert np.array_equal(got[-2], np.eye(ambient)[2])


# -- naming the failing sample -----------------------------------------------------


def _tilted_field(sphere):
    """Horizontal, except where q_0 > 0.5: there it leans along the Hopf
    field."""
    J = complex_structure(sphere.ambient_dim)
    base = horizontal_extension_field(sphere, np.eye(sphere.ambient_dim)[1])

    def value(q):
        lean = (q[..., 0] > 0.5)[..., None] * np.matmul(J, q[..., None])[..., 0]
        return base.value_fn(q) + lean

    return VariationField(sphere, value, base.jacobian_fn, name="tilted")


def test_non_orthogonal_variation_names_row_and_sample():
    xi = hopf_field(2)
    eta = _tilted_field(xi.sphere)
    pts = unit_points(6, 20, 50)
    first = int(np.flatnonzero(pts[:, 0] > 0.5)[0])
    assert first > 0
    with pytest.raises(PreconditionError, match=f"orthogonal.*\\(row {first}\\)") as err:
        reduced_integrand(xi, eta, pts)
    assert err.value.row == first

    seed = 4
    draws = np.array([np.random.default_rng((seed, i)).standard_normal(6)
                      for i in range(64)])
    idx = int(np.flatnonzero(draws[:, 0] / np.linalg.norm(draws, axis=1) > 0.5)[0])
    assert idx > 0
    fn = lambda q: reduced_integrand(xi, eta, xi.sphere.stacked_points(q))
    with pytest.raises(PreconditionError,
                       match=f"quadrature sample {idx}, seed tuple \\({seed}, {idx}\\)") as err:
        integrate_over_sphere(fn, xi.sphere, 64, seed)
    assert err.value.row == idx


def zero_draw(monkeypatch, idx):
    """Make the quadrature's draw ``idx`` the zero vector."""
    real = manifold.stream_normals

    def draw(seed, first, out):
        real(seed, first, out)
        if first <= idx < first + len(out):
            out[idx - first] = 0.0
        return out

    monkeypatch.setattr(manifold, "stream_normals", draw)


def test_zero_quadrature_draw_names_its_sample(monkeypatch, capsys):
    """A draw that cannot be normalized onto the sphere is refused, naming
    its sample; through the CLI it is a numerical failure, exit 3."""
    xi = hopf_field(2)
    zero_draw(monkeypatch, 5)
    with pytest.raises(DegenerateInputError,
                       match="quadrature sample 5, seed tuple \\(4, 5\\)") as err:
        integrate_over_sphere(lambda q: q[:, 0], xi.sphere, 64, 4)
    assert err.value.row == 5
    assert main(["variation", "--dim", "5", "--samples", "64"]) == 3
    err = capsys.readouterr().err
    assert "quadrature sample 5, seed tuple (0, 5)" in err


def test_cli_names_the_failing_quadrature_sample(monkeypatch, capsys):
    eta = _tilted_field(hopf_field(2).sphere)
    monkeypatch.setattr(
        variation, "destabilizing_integrand",
        lambda xi: lambda q: reduced_integrand(xi, eta, xi.sphere.stacked_points(q)))
    assert main(["variation", "--dim", "5", "--samples", "64"]) == 3
    err = capsys.readouterr().err
    assert "orthogonal" in err and "seed tuple (0, " in err

