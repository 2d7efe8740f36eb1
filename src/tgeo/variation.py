"""Second variation of volume for the section xi(M) of the unit tangent bundle.

Provides the general pointwise integrand of the second volume variation, its
reduced closed form for Hopf fields on unit spheres, propagation of adapted
frames along Hopf fibers, the fiberwise destabilizing variation field, the
stable-family check on S^3, and Monte Carlo quadrature over the sphere.

Sign conventions: the stability integrands here have constant sign for the
fields they are evaluated on, so stability and instability are certified
pointwise; quadrature only reports magnitudes.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .manifold import (
    DegenerateInputError,
    SpherePoint,
    SphereSpec,
    TangentVector,
    gram_schmidt_rows,
)
from .fields import (
    PreconditionError,
    UnitVectorField,
    complex_structure,
    hopf_field,
)
from .sasaki import (
    _require_unit_hopf,
    bundle_sectional_curvature,
    sasaki_inner,
    second_form_lemma,
    submanifold_frames,
    xi_normal_lift,
)
from .report import VerificationReport

# Residual ceiling for the propagated-frame derivative table.
FIBER_TABLE_TOL = 1e-4

# A full fiber loop must close this well (4th-order integrator budget).
FIBER_CLOSURE_TOL = 1e-6

DEFAULT_FIBER_STEPS = 64
RK_SUBSTEPS = 8

# Pointwise ceiling for the stability margin and the witness ratio.
VERDICT_TOL = 1e-3


class PropagationFailure(RuntimeError):
    """Fiber frame propagation drifted beyond the table residual ceiling."""


class QuadratureFailure(RuntimeError):
    """Too many quadrature samples were rejected (NaN/inf integrand)."""


# A variation direction eta uses the unit field's evaluation protocol
# without its unit-norm contract; eta(p) orthogonal to the varied unit field
# is checked at use sites.
VariationField = UnitVectorField


# -- quadrature ----------------------------------------------------------------


@dataclass(frozen=True)
class Quadrature:
    """Uniform Monte Carlo sampling plan; each sample index derives its own
    RNG stream, so estimates are independent of evaluation order."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise DegenerateInputError("quadrature needs at least one sample")


QuadratureResult = namedtuple(
    "QuadratureResult", ["value", "std_error", "samples", "rejected", "volume"])


def sphere_volume(sphere: SphereSpec) -> float:
    d = sphere.dim
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0) \
        * sphere.radius ** d


def integrate_over_sphere(fn: Callable[[np.ndarray], float], sphere: SphereSpec,
                          quadrature: Quadrature) -> QuadratureResult:
    """Unbiased estimate vol * mean(fn) with standard error.

    Non-finite integrand values are rejected and counted; more than 1%
    rejections aborts the estimate.
    """
    vals = []
    rejected = 0
    for idx in range(quadrature.samples):
        rng = np.random.default_rng((quadrature.seed, idx))
        vec = rng.standard_normal(sphere.ambient_dim)
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            rejected += 1
            continue
        q = vec * (sphere.radius / norm)
        val = float(fn(q))
        if math.isfinite(val):
            vals.append(val)
        else:
            rejected += 1
    if rejected > 0.01 * quadrature.samples:
        raise QuadratureFailure(
            f"{rejected} of {quadrature.samples} samples rejected")
    vol = sphere_volume(sphere)
    arr = np.array(vals)
    value = vol * float(np.mean(arr))
    std_error = vol * float(np.std(arr, ddof=1)) / math.sqrt(len(arr)) \
        if len(arr) > 1 else 0.0
    return QuadratureResult(value, std_error, quadrature.samples, rejected, vol)


# -- integrands ----------------------------------------------------------------


DuschekBreakdown = namedtuple(
    "DuschekBreakdown",
    ["value", "connection_term", "principal_term", "curvature_term",
     "eta_tilde_norm_sq", "degenerate"])


def _check_orthogonal(eta0: np.ndarray, xiv: np.ndarray) -> None:
    if abs(float(eta0 @ xiv)) > 1e-8 * (np.linalg.norm(eta0) + 1.0):
        raise PreconditionError("variation field must be orthogonal to the unit field")


def duschek_integrand_general(xi: UnitVectorField, eta: VariationField,
                              p: SpherePoint, *,
                              step: float | None = None) -> DuschekBreakdown:
    """Pointwise second-variation integrand for the normal field eta^nu.

    value = sum_i ||D-perp_i eta~||^2
            - ||eta~||^2 ( -sum_{i != j} k_i k_j + sum_i K~(e~_i, eta~) )

    where k_i are eigenvalues of the eta~-directed second fundamental form
    and K~ is the bundle sectional curvature. The connection-term norms are
    the Sasaki norms of -<xi, X_i> eta^h + 2 (nabla_{X_i} eta)^t over the
    normalized tangent directions X_i; norm symbols are read as squared
    norms throughout. A zero normal lift returns 0 flagged degenerate.
    """
    frames = submanifold_frames(xi, p)
    form = second_form_lemma(xi, p, frames.singular, step=step)
    xiv = frames.singular.left_frame[0].vec
    eta0 = eta.value_array(p.coords)
    _check_orthogonal(eta0, xiv)
    eta_tilde = xi_normal_lift(xi, TangentVector(p, eta0))
    nsq = eta_tilde.norm_sq()
    if nsq < 1e-18:
        return DuschekBreakdown(0.0, 0.0, 0.0, 0.0, float(nsq), True)

    lam = frames.lambdas
    e = frames.singular.right_frame.matrix
    scale = np.sqrt(1.0 + lam ** 2)
    eta_sq = float(eta0 @ eta0)
    conn = 0.0
    for i in range(len(lam)):
        X = e[i] / scale[i]
        d = eta.covariant_derivative_array(p.coords, X)
        c = float(xiv @ X)
        tp = d - (d @ xiv) * xiv
        conn += c * c * eta_sq + 4.0 * float(tp @ tp)

    weights = np.array([sasaki_inner(ns, eta_tilde) for ns in frames.normal])
    B = np.einsum("sij,s->ij", form.omega, weights) / math.sqrt(nsq)
    kvals = np.linalg.eigvalsh(0.5 * (B + B.T))
    ksum = float(kvals.sum())
    principal = -(ksum * ksum - float(kvals @ kvals))
    curv = sum(bundle_sectional_curvature(ei, eta_tilde)
               for ei in frames.tangent)
    value = conn - nsq * (principal + curv)
    return DuschekBreakdown(float(value), float(conn), float(principal),
                            float(curv), float(nsq), False)


def reduced_integrand(xi: UnitVectorField, eta: VariationField,
                      p: SpherePoint) -> float:
    """Closed-form integrand for the Hopf field on a unit sphere:

    4 |nabla_{e0} eta|^2 + 2 sum_a |nabla_{e_a} eta|^2 - (2n-1)/2 |eta|^2,

    summing over any orthonormal basis e_a of the field's orthogonal
    complement (the sum is a Frobenius norm, hence basis-independent).
    Must agree with the general integrand; tests assert it at 1e-3.
    """
    _require_unit_hopf(xi, "reduced_integrand")
    sphere = xi.sphere
    n = sphere.dim - 1
    xiv = xi.value_array(p.coords)
    eta0 = eta.value_array(p.coords)
    _check_orthogonal(eta0, xiv)
    candidates = np.vstack([xiv,
                            sphere.project_array(p.coords, np.eye(sphere.ambient_dim))])
    rows = gram_schmidt_rows(candidates, pivot_tol=1e-6, drop=True)
    d0 = eta.covariant_derivative_array(p.coords, rows[0])
    total = 4.0 * float(d0 @ d0)
    for row in rows[1:]:
        d = eta.covariant_derivative_array(p.coords, row)
        total += 2.0 * float(d @ d)
    return total - (2.0 * n - 1.0) / 2.0 * float(eta0 @ eta0)


# -- the S^3 stable family ------------------------------------------------------

_LI = complex_structure(4)
_LJ = np.array([[0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0]])
_LK = np.array([[0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0]])


def hopf_frame_s3(p_coords: np.ndarray):
    """The global orthonormal frame (e0, e1, e2) on the unit 3-sphere built
    from the three quaternion left multiplications; e0 is the Hopf field."""
    return _LI @ p_coords, _LJ @ p_coords, _LK @ p_coords


def random_hopf_combination(rng: np.random.Generator) -> VariationField:
    """eta = f1 e1 + f2 e2 on the unit S^3 with random trigonometric-
    polynomial coefficients f_a(q) = a0 + sum_s b_s sin(<w_s, q> + phi_s)."""
    coeffs = []
    for _ in range(2):
        coeffs.append((float(rng.standard_normal()),
                       rng.standard_normal(3),
                       rng.standard_normal((3, 4)),
                       rng.uniform(0.0, 2.0 * np.pi, 3)))

    def cval(q, c):
        a0, b, W, ph = c
        return a0 + float(b @ np.sin(W @ q + ph))

    def cgrad(q, c):
        a0, b, W, ph = c
        return (b * np.cos(W @ q + ph)) @ W

    def value(q, _c=coeffs):
        return cval(q, _c[0]) * (_LJ @ q) + cval(q, _c[1]) * (_LK @ q)

    def jacobian(q, _c=coeffs):
        return (np.outer(_LJ @ q, cgrad(q, _c[0])) + cval(q, _c[0]) * _LJ
                + np.outer(_LK @ q, cgrad(q, _c[1])) + cval(q, _c[1]) * _LK)

    return VariationField(SphereSpec(4, 1.0), value, jacobian,
                          name="hopf-combination")


def s3_stable_form(eta: VariationField, p_coords: np.ndarray):
    """The S^3 integrand in its manifestly nonnegative-plus-half form:

    4 |nabla_{e0} eta|^2 + 2 sum_{a,s} (e_a eta^s)^2 + |eta|^2 / 2,

    with coefficients eta^s taken against the global frame (e1, e2).
    Returns (integrand, |eta|^2).
    """
    e0, e1, e2 = hopf_frame_s3(p_coords)
    eta0 = eta.value_array(p_coords)
    d0 = eta.covariant_derivative_array(p_coords, e0)
    total = 4.0 * float(d0 @ d0)
    for ea in (e1, e2):
        da = eta.covariant_derivative_array(p_coords, ea)
        for esig, lsig in ((e1, _LJ), (e2, _LK)):
            g = float(da @ esig) + float(eta0 @ (lsig @ ea))
            total += 2.0 * g * g
    nsq = float(eta0 @ eta0)
    return total + 0.5 * nsq, nsq


# -- fiber frames ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiberFrame:
    """A J-pair of horizontal frame vectors propagated along one Hopf fiber
    of the unit sphere.

    Node i sits at parameter ``ts[i]``; ``frames[i]`` holds the pair rows
    (e_1, e_2), with e_2 the fiber derivative partner of e_1:
    nabla_{e0} e_1 = -e_2 and nabla_{e0} e_2 = e_1 within the stored
    residuals.
    """

    sphere: SphereSpec
    ts: np.ndarray
    points: np.ndarray
    e0s: np.ndarray
    frames: np.ndarray
    residuals: dict

    def __post_init__(self):
        for attr in ("ts", "points", "e0s", "frames"):
            arr = np.array(getattr(self, attr), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    @property
    def node_count(self) -> int:
        return len(self.ts)


def _horizontal_seed(q: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The seed e_1 of the destabilizing pair at q: the first ambient basis
    vector that survives deterministic Gram-Schmidt against q and J q."""
    rows = gram_schmidt_rows(np.vstack([q, J @ q, np.eye(len(q))]),
                             pivot_tol=1e-6, drop=True)
    return rows[2]


def propagate_fiber_frame(p0: SpherePoint,
                          steps: int = DEFAULT_FIBER_STEPS) -> FiberFrame:
    """Advance one J-pair of horizontal frame vectors around the fiber.

    The fiber is t -> cos(t) p0 + sin(t) J p0. The pair starts as (v, -J v)
    with v the horizontal seed at p0, so the fiber-derivative relations hold
    at t = 0; the pair rows are then integrated around the loop with
    classical RK4 on the first-order system a' = -b - <a, g'> g,
    b' = a - <b, g'> g. Residuals of the derivative table, orthonormality,
    and loop closure are recorded; table residuals above FIBER_TABLE_TOL
    raise PropagationFailure.
    """
    sphere = p0.sphere
    if abs(sphere.radius - 1.0) > 1e-12:
        raise PreconditionError("fiber propagation is defined on unit spheres")
    if steps < 8:
        raise DegenerateInputError("fiber propagation needs at least 8 steps")
    J = complex_structure(sphere.ambient_dim)

    p0c = p0.coords
    jp0 = J @ p0c
    v = _horizontal_seed(p0c, J)
    Y = np.array([v, -J @ v])
    S = np.array([[0.0, -1.0],
                  [1.0, 0.0]])  # (e_1, e_2)' = (-e_2, e_1) along the fiber

    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    h = 2.0 * np.pi / (steps * RK_SUBSTEPS)

    def gamma(t: float) -> np.ndarray:
        return math.cos(t) * p0c + math.sin(t) * jp0

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        g = gamma(t)
        gp = J @ g
        return S @ state - np.outer(state @ gp, g)

    frames = [Y]
    for i in range(steps):
        for s in range(RK_SUBSTEPS):
            t0 = ts[i] + s * h
            k1 = rhs(t0, Y)
            k2 = rhs(t0 + 0.5 * h, Y + 0.5 * h * k1)
            k3 = rhs(t0 + 0.5 * h, Y + 0.5 * h * k2)
            k4 = rhs(t0 + h, Y + h * k3)
            Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        frames.append(Y)
    frames = np.array(frames)
    points = np.array([gamma(t) for t in ts])
    e0s = points @ J.T

    residuals = _fiber_residuals(J, ts, points, frames)
    if max(residuals["fiber_rows"], residuals["horizontal_rows"]) > FIBER_TABLE_TOL:
        raise PropagationFailure(
            "fiber frame table residuals "
            f"{residuals['fiber_rows']:.3e}/{residuals['horizontal_rows']:.3e} "
            f"exceed {FIBER_TABLE_TOL:.1e}")
    return FiberFrame(sphere, ts, points, e0s, frames, residuals)


def _fiber_residuals(J: np.ndarray, ts: np.ndarray, points: np.ndarray,
                     frames: np.ndarray) -> dict:
    steps = len(ts) - 1
    closure = float(np.max(np.linalg.norm(frames[-1] - frames[0], axis=1)))

    ortho = 0.0
    for i in range(steps + 1):
        stack = np.vstack([points[i], points[i] @ J.T, frames[i]])
        gram = stack @ stack.T
        ortho = max(ortho, float(np.max(np.abs(gram - np.eye(len(stack))))))

    # fiber-direction table rows by 5-point periodic differentiation
    E = frames[:steps]  # node steps coincides with node 0 up to closure
    dt = 2.0 * np.pi / steps
    dE = (-np.roll(E, -2, axis=0) + 8.0 * np.roll(E, -1, axis=0)
          - 8.0 * np.roll(E, 1, axis=0) + np.roll(E, 2, axis=0)) / (12.0 * dt)
    fiber_resid = 0.0
    for i in range(steps):
        nab = dE[i] - np.outer(dE[i] @ points[i], points[i])
        fiber_resid = max(fiber_resid,
                          float(np.linalg.norm(nab[0] + E[i, 1])),
                          float(np.linalg.norm(nab[1] - E[i, 0])))

    # horizontal table rows reduce to J-pairing integrity: for the
    # horizontal-projection extension F_w(q) = w - <w,q> q - <w,Jq> Jq the
    # derivative at a frame point is exactly nabla_X F_w = <J w, X> e0, so
    # the rows hold iff J e_2 = e_1 and J e_1 = -e_2.
    JA = frames @ J.T
    horiz_resid = max(
        float(np.max(np.linalg.norm(JA[:, 0] + frames[:, 1], axis=1))),
        float(np.max(np.linalg.norm(JA[:, 1] - frames[:, 0], axis=1))))

    return {"closure": closure, "orthonormality": ortho,
            "fiber_rows": fiber_resid, "horizontal_rows": horiz_resid}


# -- variation fields from frames ----------------------------------------------


def horizontal_extension_field(sphere: SphereSpec, w) -> VariationField:
    """The horizontal projection of a constant ambient vector w:
    F(q) = w - <w,q> q - <w,Jq> Jq. Orthogonal to the Hopf field everywhere
    on the unit sphere; Jacobian analytic."""
    J = complex_structure(sphere.ambient_dim)
    w = np.array(w, dtype=float)
    jw = J @ w

    def value(q):
        jq = J @ q
        return w - (w @ q) * q - (w @ jq) * jq

    def jacobian(q):
        jq = J @ q
        # D_X F = -<w,X> q - <w,q> X + <Jw,X> Jq - <w,Jq> JX
        return (-np.outer(q, w) - (w @ q) * np.eye(len(q))
                + np.outer(jq, jw) - (w @ jq) * J)

    return VariationField(sphere, value, jacobian, name="horizontal")


def destabilizing_field(fiber: FiberFrame) -> VariationField:
    """The variation eta = cos(t) e_1 + sin(t) e_2 along the fiber, realized
    by the global horizontal extension of the constant ambient vector
    e_1(0); on the fiber the two agree exactly and eta is parallel along the
    fiber direction."""
    return horizontal_extension_field(fiber.sphere, fiber.frames[0, 0])


def destabilizing_integrand(xi: UnitVectorField):
    """Pointwise map q -> reduced integrand of the local destabilizing field
    seeded at q's own fiber (unit field norm at q by construction)."""
    _require_unit_hopf(xi, "destabilizing_integrand")
    sphere = xi.sphere
    J = complex_structure(sphere.ambient_dim)

    def fn(q: np.ndarray) -> float:
        eta = horizontal_extension_field(sphere, _horizontal_seed(q, J))
        return reduced_integrand(xi, eta, sphere.point(q))

    return fn


# -- verdicts -------------------------------------------------------------------


def stability_verdict(dim: int, mode: str = "auto", *, field_count: int = 100,
                      samples: int = 100, fiber_steps: int = DEFAULT_FIBER_STEPS,
                      seed: int = 0) -> VerificationReport:
    """Certify the sign of the second volume variation for the Hopf field
    on the unit sphere S^dim.

    mode "stable-S3" (dim 3): the closed-form integrand stays at or above
    |eta|^2 / 2 pointwise across random frame-built fields, which is the
    stability bound. mode "instability" (dim >= 5): the destabilizing fiber
    field has integrand ratio (5-2n)/2 < 0 at every fiber sample, and sign
    constancy turns the pointwise witness into a negative second variation.
    mode "auto" picks by dimension.
    """
    if dim < 3 or dim % 2 == 0:
        raise DegenerateInputError("stability analysis needs odd dimension >= 3")
    xi = hopf_field((dim - 1) // 2)
    if mode == "auto":
        mode = "stable-S3" if dim == 3 else "instability"
    if mode not in ("stable-S3", "instability"):
        raise DegenerateInputError(f"unknown stability mode {mode!r}")

    t_start = time.perf_counter()
    if mode == "stable-S3":
        if dim != 3:
            raise DegenerateInputError("stable-S3 mode is defined on S^3")
        report = _stable_s3_run(xi, field_count, samples, seed)
    else:
        report = _instability_run(xi, dim, fiber_steps, seed)
    report.wall_time_s = time.perf_counter() - t_start
    return report


def _stable_s3_run(xi, field_count, samples, seed) -> VerificationReport:
    worst_margin = math.inf
    ident_resid = 0.0
    count = 0
    for fi in range(field_count):
        rng = np.random.default_rng((seed, fi))
        eta = random_hopf_combination(rng)
        for _ in range(samples):
            pt = xi.sphere.random_point(rng)
            red = reduced_integrand(xi, eta, pt)
            form_val, nsq = s3_stable_form(eta, pt.coords)
            worst_margin = min(worst_margin, red - 0.5 * nsq)
            ident_resid = max(ident_resid, abs(red - form_val))
            count += 1
    max_residual = max(0.0, -worst_margin)
    verdict = "stable" if max_residual <= VERDICT_TOL else "fail"
    notes = [
        f"min of integrand - |eta|^2/2 over {count} samples: {worst_margin:.6e}",
        f"max gap between closed form and frame decomposition: {ident_resid:.3e}",
        "norm symbols in the variation integrand are read as squared norms",
    ]
    return VerificationReport(
        name="stability",
        parameters={"dim": 3, "mode": "stable-S3", "field_count": field_count,
                    "samples": samples, "seed": seed},
        samples=count, max_residual=max_residual, tolerance=VERDICT_TOL,
        verdict=verdict, notes=notes)


def _instability_run(xi, dim, fiber_steps, seed) -> VerificationReport:
    sphere = xi.sphere
    n = dim - 1
    target = (5.0 - 2.0 * n) / 2.0
    rng = np.random.default_rng((seed, 0))
    p0 = sphere.random_point(rng)
    fiber = propagate_fiber_frame(p0, steps=fiber_steps)
    eta = destabilizing_field(fiber)
    J = complex_structure(sphere.ambient_dim)

    max_dev = 0.0
    d0_resid = 0.0
    grad_resid = 0.0
    for node in range(fiber.node_count):
        q = fiber.points[node]
        nv = eta.value_array(q)
        nsq = float(nv @ nv)
        red = reduced_integrand(xi, eta, sphere.point(q))
        max_dev = max(max_dev, abs(red / nsq - target))
        d0 = eta.covariant_derivative_array(q, fiber.e0s[node])
        d0_resid = max(d0_resid, float(np.linalg.norm(d0)))
        # coefficient gradients against the horizontal-projection extension
        # of each frame vector, in the fiber direction and all frame rows
        Dq = eta.jacobian_array(q)
        dirs = np.vstack([fiber.e0s[node], fiber.frames[node]])
        for w in fiber.frames[node]:
            jq = J @ q
            jw = J @ w
            f_w = w - (w @ q) * q - (w @ jq) * jq
            for X in dirs:
                dfw_x = (-(w @ X) * q - (w @ q) * X
                         + (jw @ X) * jq - (w @ jq) * (J @ X))
                g = float((Dq @ X) @ f_w + nv @ dfw_x)
                grad_resid = max(grad_resid, abs(g))

    checks_ok = max_dev <= VERDICT_TOL and d0_resid <= 1e-4 and grad_resid <= 1e-4
    if not checks_ok:
        verdict = "fail"
    elif target < 0.0:
        verdict = "unstable"
    else:
        verdict = "pass"  # the witness integrand is positive; no instability
    notes = [
        f"witness integrand ratio target {target:+.3f}; "
        f"max deviation {max_dev:.3e} over {fiber.node_count} fiber samples",
        f"max |nabla_(fiber) eta| along the fiber: {d0_resid:.3e} (ceiling 1e-04)",
        f"max coefficient-gradient residual: {grad_resid:.3e} (ceiling 1e-04)",
        "sign certified pointwise: the integrand is constant along fibers",
        f"fiber residuals: closure {fiber.residuals['closure']:.2e}, "
        f"table {fiber.residuals['fiber_rows']:.2e}",
    ]
    return VerificationReport(
        name="stability",
        parameters={"dim": dim, "mode": "instability", "seed": seed,
                    "fiber_steps": int(fiber.node_count - 1)},
        samples=fiber.node_count, max_residual=max_dev, tolerance=VERDICT_TOL,
        verdict=verdict, notes=notes)
