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
    _STREAM_CHUNK,
    DegenerateInputError,
    SpherePoint,
    SphereSpec,
    _as_readonly,
    _gram_schmidt_stack,
    _matvec_rows,
    _one_point,
    _require_rows,
    _row_norms,
    stream_chunks,
)
from .fields import (
    MIN_FIBER_STEPS,
    PreconditionError,
    PropagationFailure,
    UnitVectorField,
    complex_structure,
    hopf_field,
    singular_decomposition,
)
from .sasaki import (
    _require_unit_hopf,
    _xi_frame_rows,
    bundle_sectional_curvature_array,
    second_form_lemma,
    xi_normal_lift_array,
)
from .report import VerificationReport

# Residual ceiling for the propagated-frame derivative table.
FIBER_TABLE_TOL = 1e-4

RK_SUBSTEPS = 8

# Fiber steps whose substep table is computed at once: bounds the table's
# memory, whatever the number of steps.
_FIBER_BLOCK = 64

# Pointwise ceiling for the stability margin and the witness ratio.
VERDICT_TOL = 1e-3


# A variation direction eta uses the unit field's evaluation protocol
# without its unit-norm contract; eta(p) orthogonal to the varied unit field
# is checked at use sites.
VariationField = UnitVectorField


# -- quadrature ----------------------------------------------------------------


QuadratureResult = namedtuple(
    "QuadratureResult", ["value", "std_error", "samples", "volume"])


def sphere_volume(sphere: SphereSpec) -> float:
    d = sphere.dim
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0) \
        * sphere.radius ** d


def integrate_over_sphere(fn: Callable[[np.ndarray], np.ndarray],
                          sphere: SphereSpec, samples: int,
                          seed: int) -> QuadratureResult:
    """Unbiased estimate vol * mean(fn) with standard error, from ``samples``
    uniform points.

    Sample idx draws from its own RNG stream (seed, idx), so the estimate
    does not depend on evaluation order. ``fn`` maps an (N, ambient) stack
    of the points to their (N,) values; it is called on _STREAM_CHUNK
    samples at a time through ``stream_chunks``, which refuses values of
    another shape and names a non-finite value, or a row check that fails on
    a draw or inside ``fn``, by its sample and the seed tuple that replays it.
    """
    if samples < 1:
        raise DegenerateInputError("quadrature needs at least one sample")

    def values(start, draws):
        return {"integrand": fn(sphere.stacked_points(draws))}

    vals = stream_chunks(seed, 0, samples, _STREAM_CHUNK, (sphere.ambient_dim,),
                         "quadrature sample", values)["integrand"]
    vol = sphere_volume(sphere)
    std_error = vol * float(np.std(vals, ddof=1)) / math.sqrt(samples) \
        if samples > 1 else 0.0
    return QuadratureResult(vol * float(np.mean(vals)), std_error, samples, vol)


# -- integrands ----------------------------------------------------------------


DuschekBreakdown = namedtuple(
    "DuschekBreakdown",
    ["value", "connection_term", "principal_term", "curvature_term",
     "eta_tilde_norm_sq", "degenerate"])


def _check_orthogonal(eta0: np.ndarray, xiv: np.ndarray) -> None:
    """eta(p) orthogonal to xi(p), row by row for (N, ambient) values."""
    _require_rows(np.abs(np.vecdot(eta0, xiv)) <= 1e-8 * (_row_norms(eta0) + 1.0),
                  PreconditionError,
                  "variation field must be orthogonal to the unit field")


def _derivative_rows(eta: VariationField, coords: np.ndarray, jac: np.ndarray,
                     directions: np.ndarray) -> np.ndarray:
    """nabla_X eta row by row from eta's Jacobians ``jac`` (N, ambient,
    ambient) at ``coords`` (N, ambient), with the arithmetic of
    ``covariant_derivative_array``."""
    return eta.sphere.project_array(coords, _matvec_rows(jac, directions))


def duschek_integrand_general(xi: UnitVectorField, eta: VariationField,
                              p: SpherePoint) -> DuschekBreakdown:
    """Pointwise second-variation integrand for the normal field eta^nu.

    value = sum_i ||D-perp_i eta~||^2
            - ||eta~||^2 ( -sum_{i != j} k_i k_j + sum_i K~(e~_i, eta~) )

    where k_i are eigenvalues of the eta~-directed second fundamental form
    and K~ is the bundle sectional curvature. The connection-term norms are
    the Sasaki norms of -<xi, X_i> eta^h + 2 (nabla_{X_i} eta)^t over the
    normalized tangent directions X_i; norm symbols are read as squared
    norms throughout. A zero normal lift returns 0 flagged degenerate.
    """
    pc = _one_point(p)
    sd = singular_decomposition(xi, pc[None])
    form = second_form_lemma(xi, pc[None], sd)[0]
    eta0 = eta.value_array(pc)
    xiv, eh, ev = xi_normal_lift_array(xi, pc, eta0[None])
    _check_orthogonal(eta0[None], xiv[None])
    nsq = float(np.vecdot(eh, eh)[0] + np.vecdot(ev, ev)[0])
    if nsq < 1e-18:
        return DuschekBreakdown(0.0, 0.0, 0.0, 0.0, nsq, True)

    (th, tv), (nh, nv) = _xi_frame_rows(sd)
    eta_sq = float(eta0 @ eta0)
    conn = 0.0
    for X in th:
        d = eta.covariant_derivative_array(pc, X)
        c = float(xiv @ X)
        tp = d - (d @ xiv) * xiv
        conn += c * c * eta_sq + 4.0 * float(tp @ tp)

    weights = np.vecdot(nh, eh) + np.vecdot(nv, ev)  # Sasaki pairings
    B = np.einsum("sij,s->ij", form, weights) / math.sqrt(nsq)
    kvals = np.linalg.eigvalsh(0.5 * (B + B.T))
    ksum = float(kvals.sum())
    principal = -(ksum * ksum - float(kvals @ kvals))
    at, u, y1, y2 = (np.broadcast_to(v, th.shape) for v in (pc, xiv, eh, ev))
    curv = float(np.sum(bundle_sectional_curvature_array(
        xi.sphere, at, u, th, tv, y1, y2)))
    value = conn - nsq * (principal + curv)
    return DuschekBreakdown(float(value), float(conn), float(principal),
                            curv, nsq, False)


def reduced_integrand(xi: UnitVectorField, eta: VariationField,
                      pts: np.ndarray) -> np.ndarray:
    """Closed-form integrand for the Hopf field on a unit sphere:

    4 |nabla_{e0} eta|^2 + 2 sum_a |nabla_{e_a} eta|^2 - (2n-1)/2 |eta|^2,

    summing over any orthonormal basis e_a of the field's orthogonal
    complement (the sum is a Frobenius norm, hence basis-independent).
    Must agree with the general integrand; tests assert it at 1e-3.

    ``pts`` is an (N, ambient) stack of sphere points
    (``SphereSpec.stacked_points``); the result is (N,). The fields are
    evaluated once on the stack, and eta's Jacobian serves every direction.
    """
    _require_unit_hopf(xi, "reduced_integrand")
    sphere = xi.sphere
    n = sphere.dim - 1
    xiv = xi.value_array(pts)
    eta0 = eta.value_array(pts)
    _check_orthogonal(eta0, xiv)
    jac = eta.jacobian_array(pts)
    # the basis e_0 = xi, then the projected ambient basis; a collapsing
    # candidate is a zero row, whose term adds exactly 0
    projected = sphere.project_array(pts, np.eye(sphere.ambient_dim)[None])
    rows = _gram_schmidt_stack(np.concatenate([xiv[:, None], projected], axis=1),
                               pivot_tol=1e-6, drop=True)
    d0 = _derivative_rows(eta, pts, jac, rows[:, 0])
    total = 4.0 * np.vecdot(d0, d0)
    for k in range(1, rows.shape[1]):
        d = _derivative_rows(eta, pts, jac, rows[:, k])
        total += 2.0 * np.vecdot(d, d)
    return total - (2.0 * n - 1.0) / 2.0 * np.vecdot(eta0, eta0)


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


# Rows per stacked call of the S^3 stable family: whole fields, at least
# one, so 10,000 samples per field hold one field's rows, not 100 fields'.
_S3_CHUNK_ROWS = 4096


def hopf_frame_s3(p_coords: np.ndarray):
    """The global orthonormal frame (e0, e1, e2) on the unit 3-sphere built
    from the three quaternion left multiplications; e0 is the Hopf field.
    Row by row for (N, 4) coordinates."""
    return (_matvec_rows(_LI, p_coords), _matvec_rows(_LJ, p_coords),
            _matvec_rows(_LK, p_coords))


def random_hopf_combination(rng: np.random.Generator) -> VariationField:
    """eta = f1 e1 + f2 e2 on the unit S^3 with random trigonometric-
    polynomial coefficients f_a(q) = a0 + sum_s b_s sin(<w_s, q> + phi_s).
    Takes one point or a stack of points."""
    return _hopf_combination(_combination_coefficients(rng))


def _combination_coefficients(rng: np.random.Generator) -> tuple:
    """One field's (a0, b, W, phi) for f1, then for f2, in draw order."""
    return tuple((float(rng.standard_normal()), rng.standard_normal(3),
                  rng.standard_normal((3, 4)), rng.uniform(0.0, 2.0 * np.pi, 3))
                 for _ in range(2))


def _hopf_combination(coeffs: tuple) -> VariationField:
    """The field f1 e1 + f2 e2 of ``coeffs``: one field's coefficients, or
    coefficient arrays with a leading row axis, row i for row i of the
    (N, 4) stacks the field is then evaluated on."""

    def cval(q, c):
        a0, b, W, ph = c
        return (a0 + np.vecdot(b, np.sin(_matvec_rows(W, q) + ph)))[..., None]

    def cgrad(q, c):
        a0, b, W, ph = c
        return np.matmul((b * np.cos(_matvec_rows(W, q) + ph))[..., None, :],
                         W)[..., 0, :]

    def value(q, _c=coeffs):
        return cval(q, _c[0]) * _matvec_rows(_LJ, q) \
            + cval(q, _c[1]) * _matvec_rows(_LK, q)

    def jacobian(q, _c=coeffs):
        return (_matvec_rows(_LJ, q)[..., :, None] * cgrad(q, _c[0])[..., None, :]
                + cval(q, _c[0])[..., None] * _LJ
                + _matvec_rows(_LK, q)[..., :, None] * cgrad(q, _c[1])[..., None, :]
                + cval(q, _c[1])[..., None] * _LK)

    return VariationField(SphereSpec(4, 1.0), value, jacobian,
                          name="hopf-combination")


def s3_stable_form(eta: VariationField, pts: np.ndarray) -> tuple:
    """The S^3 integrand in its manifestly nonnegative-plus-half form:

    4 |nabla_{e0} eta|^2 + 2 sum_{a,s} (e_a eta^s)^2 + |eta|^2 / 2,

    with coefficients eta^s taken against the global frame (e1, e2).
    Returns the (N,) arrays (integrand, |eta|^2) for a stack ``pts`` (N, 4),
    with eta's Jacobian evaluated once.
    """
    e0, e1, e2 = hopf_frame_s3(pts)
    eta0 = eta.value_array(pts)
    jac = eta.jacobian_array(pts)
    d0 = _derivative_rows(eta, pts, jac, e0)
    total = 4.0 * np.vecdot(d0, d0)
    for ea in (e1, e2):
        da = _derivative_rows(eta, pts, jac, ea)
        for esig, lsig in ((e1, _LJ), (e2, _LK)):
            g = np.vecdot(da, esig) + np.vecdot(eta0, _matvec_rows(lsig, ea))
            total += 2.0 * g * g
    nsq = np.vecdot(eta0, eta0)
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
            object.__setattr__(self, attr, _as_readonly(getattr(self, attr)))

    @property
    def node_count(self) -> int:
        return len(self.ts)


def _horizontal_seed(q: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The seed e_1 of the destabilizing pair at each row of ``q`` (N,
    ambient): the first ambient basis vector that survives deterministic
    Gram-Schmidt against q and J q.

    Only e_0, e_1, e_2 are candidates: their squared residuals off the plane
    span{q, J q} sum to at least 3 - 2 = 1, so one of them survives the 1e-6
    pivot, and Gram-Schmidt reads no later candidate before the first
    survivor.
    """
    n, dim = q.shape
    candidates = np.concatenate(
        [q[:, None], _matvec_rows(J, q)[:, None],
         np.broadcast_to(np.eye(dim)[:3], (n, 3, dim))], axis=1)
    rows = _gram_schmidt_stack(candidates, pivot_tol=1e-6, drop=True)[:, 2:]
    first = np.argmax(np.any(rows != 0.0, axis=2), axis=1)
    return rows[np.arange(n), first]


def propagate_fiber_frame(p0: SpherePoint, steps: int) -> FiberFrame:
    """Advance one J-pair of horizontal frame vectors around the fiber.

    The fiber is t -> cos(t) p0 + sin(t) J p0. The pair starts as (v, -J v)
    with v the horizontal seed at p0, so the fiber-derivative relations hold
    at t = 0; the pair rows are then integrated around the loop with
    classical RK4 on the first-order system a' = -b - <a, g'> g,
    b' = a - <b, g'> g, whose (-b, a) is the row swap of the pair times a
    sign. The fiber point g and g' = J g at every time the loop reads (each
    substep's t0, t0 + h/2 and t0 + h) are tabulated ahead of the loop, for
    _FIBER_BLOCK steps at a time, with the loop's own time arithmetic and
    math.cos and math.sin. Residuals of the derivative table,
    orthonormality, and loop closure are recorded, each from one stacked
    call over all nodes; any of them above FIBER_TABLE_TOL (the table's
    first) raises PropagationFailure naming it.
    """
    sphere = p0.sphere
    if not sphere.is_unit:
        raise PreconditionError("fiber propagation is defined on unit spheres")
    if steps < MIN_FIBER_STEPS:
        raise DegenerateInputError(
            f"fiber propagation needs at least {MIN_FIBER_STEPS} steps")
    J = complex_structure(sphere.ambient_dim)

    p0c = _one_point(p0)
    jp0 = J @ p0c
    v = _horizontal_seed(p0c[None], J)[0]
    Y = np.array([v, -J @ v])
    # (e_1, e_2)' = (-e_2, e_1) along the fiber: the row swap times a sign
    sign = np.array([[-1.0], [1.0]])

    ts = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    h = 2.0 * np.pi / (steps * RK_SUBSTEPS)
    half, sixth = 0.5 * h, h / 6.0

    def gamma(t: np.ndarray) -> np.ndarray:
        # math.cos, not np.cos: numpy's SIMD kernels may round differently
        cos = np.array([math.cos(x) for x in t.flat]).reshape(t.shape)
        sin = np.array([math.sin(x) for x in t.flat]).reshape(t.shape)
        return cos[..., None] * p0c + sin[..., None] * jp0

    frames = [Y]
    for first in range(0, steps, _FIBER_BLOCK):
        # the fiber at each substep's t0 = ts[i] + s h, t0 + h/2 and t0 + h;
        # G @ J.T is exact, J being a signed permutation
        last = min(first + _FIBER_BLOCK, steps)
        t0 = ts[first:last, None] + np.arange(RK_SUBSTEPS) * h
        G = gamma(np.stack([t0, t0 + 0.5 * h, t0 + h], axis=-1))
        for G_i, GP_i in zip(G, G @ J.T):
            for (g0, g1, g2), (gp0, gp1, gp2) in zip(G_i, GP_i):
                k1 = sign * Y[::-1] - (Y @ gp0)[:, None] * g0
                Z = Y + half * k1
                k2 = sign * Z[::-1] - (Z @ gp1)[:, None] * g1
                Z = Y + half * k2
                k3 = sign * Z[::-1] - (Z @ gp1)[:, None] * g1
                Z = Y + h * k3
                k4 = sign * Z[::-1] - (Z @ gp2)[:, None] * g2
                Y = Y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            frames.append(Y)
    frames = np.array(frames)
    points = gamma(ts)
    e0s = points @ J.T

    residuals = _fiber_residuals(J, ts, points, frames)
    table = (residuals["fiber_rows"], residuals["horizontal_rows"])
    if not np.max(table) <= FIBER_TABLE_TOL:  # a NaN fails too
        raise PropagationFailure(f"fiber frame table residuals {table[0]:.3e}/"
                                 f"{table[1]:.3e} exceed {FIBER_TABLE_TOL:.1e}")
    for name in ("orthonormality", "closure"):
        if not residuals[name] <= FIBER_TABLE_TOL:
            raise PropagationFailure(f"fiber frame {name} residual "
                                     f"{residuals[name]:.3e} exceeds {FIBER_TABLE_TOL:.1e}")
    return FiberFrame(sphere, ts, points, e0s, frames, residuals)


def _fiber_residuals(J: np.ndarray, ts: np.ndarray, points: np.ndarray,
                     frames: np.ndarray) -> dict:
    """Each residual is the np.max of its per-node values, so a NaN stays.
    The nodes are taken _FIBER_BLOCK at a time, which bounds the memory."""
    steps = len(ts) - 1
    closure = float(np.max(np.linalg.norm(frames[-1] - frames[0], axis=1)))
    dt = 2.0 * np.pi / steps
    peak = np.zeros(3)
    for first in range(0, steps, _FIBER_BLOCK):
        last = min(first + _FIBER_BLOCK, steps)
        # node steps coincides with node 0 up to closure: the periodic table
        # leaves it out, the pointwise checks take it with the last block
        end = last + (last == steps)
        P, F = points[first:end], frames[first:end]
        # one Gram matrix per node, each the BLAS product of its own (4,
        # ambient) matrix, as a one-node call makes it
        stack = np.concatenate([P[:, None], (P @ J.T)[:, None], F], axis=1)
        ortho = np.abs(stack @ stack.transpose(0, 2, 1) - np.eye(4))

        # fiber-direction table rows by 5-point periodic differentiation,
        # over the block and two nodes on each side of it
        E = frames[np.arange(first - 2, last + 2) % steps]
        dE = (-E[4:] + 8.0 * E[3:-1] - 8.0 * E[1:-3] + E[:-4]) / (12.0 * dt)
        E, q = E[2:-2], P[:last - first]
        nab = dE - _matvec_rows(dE, q)[:, :, None] * q[:, None]
        fiber = np.concatenate([_row_norms(nab[:, 0] + E[:, 1]),
                                _row_norms(nab[:, 1] - E[:, 0])])

        # horizontal table rows reduce to J-pairing integrity: for the
        # horizontal-projection extension F_w(q) = w - <w,q> q - <w,Jq> Jq
        # the derivative at a frame point is exactly nabla_X F_w = <J w, X>
        # e0, so the rows hold iff J e_2 = e_1 and J e_1 = -e_2.
        JA = F @ J.T
        horiz = np.concatenate([np.linalg.norm(JA[:, 0] + F[:, 1], axis=1),
                                np.linalg.norm(JA[:, 1] - F[:, 0], axis=1)])
        peak = np.maximum(peak, [np.max(ortho), np.max(fiber), np.max(horiz)])
    ortho, fiber, horiz = peak.tolist()
    return {"closure": closure, "orthonormality": ortho, "fiber_rows": fiber,
            "horizontal_rows": horiz}


# -- variation fields from frames ----------------------------------------------


def horizontal_extension_field(sphere: SphereSpec, w) -> VariationField:
    """The horizontal projection of a constant ambient vector w:
    F(q) = w - <w,q> q - <w,Jq> Jq. Orthogonal to the Hopf field everywhere
    on the unit sphere; Jacobian analytic.

    ``w`` is one vector, or one per row (N, ambient) for a field evaluated
    only on stacks of N points, row i with its own w[i].
    """
    J = complex_structure(sphere.ambient_dim)
    w = np.array(w, dtype=float)
    jw = _matvec_rows(J, w)

    def value(q):
        jq = _matvec_rows(J, q)
        return w - np.vecdot(w, q)[..., None] * q - np.vecdot(w, jq)[..., None] * jq

    def jacobian(q):
        jq = _matvec_rows(J, q)
        # D_X F = -<w,X> q - <w,q> X + <Jw,X> Jq - <w,Jq> JX
        return (-(q[..., :, None] * w[..., None, :])
                - np.vecdot(w, q)[..., None, None] * np.eye(q.shape[-1])
                + jq[..., :, None] * jw[..., None, :]
                - np.vecdot(w, jq)[..., None, None] * J)

    return VariationField(sphere, value, jacobian, name="horizontal")


def destabilizing_field(fiber: FiberFrame) -> VariationField:
    """The variation eta = cos(t) e_1 + sin(t) e_2 along the fiber, realized
    by the global horizontal extension of the constant ambient vector
    e_1(0); on the fiber the two agree exactly and eta is parallel along the
    fiber direction."""
    return horizontal_extension_field(fiber.sphere, fiber.frames[0, 0])


def destabilizing_integrand(xi: UnitVectorField):
    """The map from a stack of points q (N, ambient) to the reduced
    integrand of the local destabilizing field seeded at each q's own fiber
    (unit field norm at q by construction), as an (N,) array."""
    _require_unit_hopf(xi, "destabilizing_integrand")
    sphere = xi.sphere
    J = complex_structure(sphere.ambient_dim)

    def fn(q: np.ndarray) -> np.ndarray:
        # the seeds come from q as given, the integrand is evaluated at q
        # renormalized onto the sphere
        eta = horizontal_extension_field(sphere, _horizontal_seed(q, J))
        return reduced_integrand(xi, eta, sphere.stacked_points(q))

    return fn


# -- verdicts -------------------------------------------------------------------


def stability_verdict(dim: int, *, field_count: int = 100, samples: int,
                      fiber_steps: int, seed: int) -> VerificationReport:
    """Certify the sign of the second volume variation for the Hopf field
    on the unit sphere S^dim.

    The dimension picks the witness, since only these pairings certify a
    sign. On S^3 (stable): the closed-form integrand stays at or above
    |eta|^2 / 2 pointwise across ``field_count`` random frame-built fields
    at ``samples`` points each, which is the stability bound. Field fi
    draws its coefficients, then its points, from its own stream (seed, fi);
    whole fields are then evaluated as one stack of up to _S3_CHUNK_ROWS
    rows (one field at least), and a non-finite row is a FloatingPointError
    naming the field, the sample and the seed tuple. On S^5 and up
    (unstable): the destabilizing fiber field has integrand ratio
    (5-2n)/2 < 0 at every fiber sample, and sign constancy turns the
    pointwise witness into a negative second variation.

    The last note is a Monte Carlo magnitude of the witness's second
    variation over ``samples`` points: field 0 of the S^3 family, or the
    destabilizing integrand. ``wall_time_s`` covers the whole run.
    """
    if dim < 3 or dim % 2 == 0:
        raise DegenerateInputError("stability analysis needs odd dimension >= 3")
    xi = hopf_field((dim - 1) // 2)
    sphere = xi.sphere

    t_start = time.perf_counter()
    if dim == 3:
        report = _stable_s3_run(xi, field_count, samples, seed)
        eta0 = random_hopf_combination(np.random.default_rng((seed, 0)))
        fn = lambda q: reduced_integrand(xi, eta0, sphere.stacked_points(q))
    else:
        report = _instability_run(xi, dim, fiber_steps, seed)
        fn = destabilizing_integrand(xi)
    quad = integrate_over_sphere(fn, sphere, samples, seed)
    report.notes.append(
        f"Monte Carlo second-variation magnitude: {quad.value:.6f} "
        f"+/- {quad.std_error:.3e} over volume {quad.volume:.6f}")
    report.wall_time_s = time.perf_counter() - t_start
    return report


def _stable_s3_run(xi, field_count, samples, seed) -> VerificationReport:
    worst_margin = math.inf
    ident_resid = 0.0
    per_chunk = max(1, _S3_CHUNK_ROWS // max(samples, 1))
    for first in range(0, field_count, per_chunk):
        eta, pts = _family_stack(
            xi.sphere, seed, range(first, min(first + per_chunk, field_count)), samples)
        red = reduced_integrand(xi, eta, pts)
        form_val, nsq = s3_stable_form(eta, pts)
        bad = ~(np.isfinite(red) & np.isfinite(form_val) & np.isfinite(nsq))
        if bad.any():  # min and max below would drop it
            fi, k = divmod(first * samples + int(np.argmax(bad)), samples)
            raise FloatingPointError(
                f"non-finite second-variation integrand: field {fi}, sample "
                f"{k}, seed tuple ({seed}, {fi})")
        worst_margin = min(worst_margin,
                           float(np.min(red - 0.5 * nsq, initial=math.inf)))
        ident_resid = max(ident_resid,
                          float(np.max(np.abs(red - form_val), initial=0.0)))
    count = field_count * samples
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


def _family_stack(sphere, seed, fields, samples) -> tuple:
    """The stable family's ``fields`` as one stacked field and its (N, 4)
    points, field-major: field fi draws from its own stream (seed, fi), its
    coefficients, then its ``samples`` points, and its coefficients repeat
    on each of its rows."""
    coeffs, draws = [], []
    for fi in fields:
        rng = np.random.default_rng((seed, fi))
        coeffs.append(_combination_coefficients(rng))
        draws.append(rng.standard_normal((samples, sphere.ambient_dim)))
    eta = _hopf_combination(tuple(
        tuple(np.repeat(np.array([c[a][j] for c in coeffs]), samples, axis=0)
              for j in range(4))
        for a in range(2)))
    return eta, sphere.stacked_points(np.concatenate(draws))


def _instability_run(xi, dim, fiber_steps, seed) -> VerificationReport:
    sphere = xi.sphere
    n = dim - 1
    target = (5.0 - 2.0 * n) / 2.0
    rng = np.random.default_rng((seed, 0))
    p0 = sphere.random_point(rng)
    fiber = propagate_fiber_frame(p0, steps=fiber_steps)
    eta = destabilizing_field(fiber)
    dev, d0_norm, grad = _fiber_residual_rows(xi, eta, fiber, target)
    max_dev = float(np.max(dev))
    d0_resid = float(np.max(d0_norm))
    grad_resid = float(np.max(grad))

    checks_ok = max_dev <= VERDICT_TOL and d0_resid <= 1e-4 and grad_resid <= 1e-4
    verdict = "unstable" if checks_ok else "fail"  # target < 0 for dim >= 5
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


def _fiber_residual_rows(xi, eta, fiber, target) -> tuple:
    """Per fiber node, evaluated as one stack: |integrand / |eta|^2 -
    target|, |nabla_(fiber) eta| and the largest coefficient-gradient
    residual against the horizontal-projection extension of each frame
    vector, in the fiber direction and both frame rows."""
    sphere = xi.sphere
    J = complex_structure(sphere.ambient_dim)
    q = fiber.points
    nv = eta.value_array(q)
    red = reduced_integrand(xi, eta, sphere.stacked_points(q))
    dev = np.abs(red / np.vecdot(nv, nv) - target)
    Dq = eta.jacobian_array(q)
    d0_norm = _row_norms(_derivative_rows(eta, q, Dq, fiber.e0s))
    jq = _matvec_rows(J, q)
    grad = np.zeros(len(q))
    for w in (fiber.frames[:, 0], fiber.frames[:, 1]):
        jw = _matvec_rows(J, w)
        f_w = w - np.vecdot(w, q)[:, None] * q - np.vecdot(w, jq)[:, None] * jq
        for X in (fiber.e0s, fiber.frames[:, 0], fiber.frames[:, 1]):
            dfw_x = (-np.vecdot(w, X)[:, None] * q - np.vecdot(w, q)[:, None] * X
                     + np.vecdot(jw, X)[:, None] * jq
                     - np.vecdot(w, jq)[:, None] * _matvec_rows(J, X))
            g = np.vecdot(_matvec_rows(Dq, X), f_w) + np.vecdot(nv, dfw_x)
            grad = np.maximum(grad, np.abs(g))
    return dev, d0_norm, grad
