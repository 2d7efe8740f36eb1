"""Round-sphere geometry in ambient Euclidean coordinates.

The sphere S^{n+1}(r) in R^{n+2} is modeled extrinsically: points carry their
ambient coordinates, tangent vectors are ambient vectors orthogonal to the
position vector, and the Levi-Civita connection is the tangential projection
of the ambient directional derivative (Gauss formula). This gives exact
constant-curvature geometry with no chart bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Central-difference step is FD_STEP_FACTOR * radius.
FD_STEP_FACTOR = 1e-5

# Gram-Schmidt pivot threshold: residual norms below this mean rank deficiency.
GS_PIVOT_TOL = 1e-10

_BASE_MATCH_TOL = 1e-9
_FLOAT_MAX = np.finfo(float).max


class DegenerateInputError(ValueError):
    """Input vector or vector list is degenerate (zero, rank-deficient, non-unit)."""


class BasePointMismatchError(ValueError):
    """Two geometric objects that must share a base point do not."""


class DegeneratePlaneError(ValueError):
    """A claimed 2-plane has near-zero Gram determinant."""


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


# -- row checks of the validating types --------------------------------------
#
# Batched kernels take (N, ambient) arrays, one row per sample, instead of
# one wrapper object per vector. These helpers are the only copy of the
# wrappers' checks: they run row by row and name the first failing row, and
# each wrapper calls them on a one-row view of its own data. The arithmetic
# matches the one-vector code bit for bit: a 1-d ``x @ y`` and ``np.vecdot``
# on rows both call the same BLAS dot, and ``np.linalg.norm`` of a 1-d array
# is ``sqrt`` of that dot.


def _require_rows(ok: np.ndarray, error: type, message) -> None:
    """Raise ``error`` for the first row (leading axis) that ``ok`` does not
    hold throughout: a check states what each row must meet, so NaN fails.

    ``message`` is a string or a function of the row index. The index is
    kept on the exception as ``row``, so a caller that knows where its rows
    came from can name the sample; the message names it when there is more
    than one row.
    """
    if np.count_nonzero(ok) == ok.size:
        return
    row = int(np.argmin(np.reshape(ok, (len(ok), -1)).all(axis=1)))
    text = message(row) if callable(message) else message
    exc = error(f"{text} (row {row})" if len(ok) > 1 else text)
    exc.row = row
    raise exc


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(v, v))


def unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` scaled to unit length; a near-zero row is refused."""
    norm = _row_norms(v)
    _require_rows(norm >= GS_PIVOT_TOL, DegenerateInputError,
                  "cannot normalize a near-zero tangent vector")
    return v / norm[..., None]


def _check_points_stack(radius: float, coords: np.ndarray) -> None:
    _require_rows(np.abs(_row_norms(coords) - radius) <= 1e-9 * radius,
                  DegenerateInputError, "coordinates do not lie on the sphere")


def _check_tangent_stack(radius: float, coords: np.ndarray,
                         vecs: np.ndarray) -> None:
    """TangentVector's check for ``vecs`` of shape (N, ambient) or
    (N, k, ambient) at the points ``coords`` (N, ambient)."""
    at = coords if vecs.ndim == 2 else coords[:, None, :]
    norms = _row_norms(vecs)
    if np.count_nonzero(norms <= _FLOAT_MAX) == norms.size:
        dots = np.vecdot(vecs, at)
    else:  # an inf entry against a zero coordinate of the point gives NaN
        with np.errstate(invalid="ignore"):
            dots = np.vecdot(vecs, at)
    # divided, not a bound scaled by |v|, which an infinite row would meet;
    # |v| capped at the largest float, so that row divides to inf, not inf / inf
    scaled = np.abs(dots) / np.minimum(np.maximum(1.0, norms), _FLOAT_MAX)
    _require_rows(scaled <= 1e-9 * radius, DegenerateInputError,
                  "vector is not tangent to the sphere")


def _check_frames_stack(frames: np.ndarray) -> None:
    """Frame's orthonormality check for each (k, ambient) frame of a stack."""
    gram = np.vecdot(frames[:, :, None, :], frames[:, None, :, :])
    _require_rows(np.abs(gram - np.eye(frames.shape[1])) <= 1e-8,
                  DegenerateInputError, "frame is not orthonormal")


def gram_schmidt_rows(mat: np.ndarray, *, pivot_tol: float) -> np.ndarray:
    """Orthonormalize the rows of ``mat`` in order (modified Gram-Schmidt),
    skipping near-dependent rows: the one-matrix case of
    ``_gram_schmidt_stack`` with ``drop``."""
    rows = _gram_schmidt_stack(np.asarray(mat, dtype=float)[None],
                               pivot_tol=pivot_tol, drop=True)[0]
    return rows[np.any(rows != 0.0, axis=1)]


def _gram_schmidt_stack(mats: np.ndarray, *, pivot_tol: float,
                        drop: bool) -> np.ndarray:
    """Modified Gram-Schmidt on the rows of each (k, ambient) matrix of an
    (N, k, ambient) stack, two passes per row. A pivot below ``pivot_tol``
    raises, or with ``drop`` leaves a zero row in its slot: subtracting a
    zero row leaves every later row unchanged bit for bit, so the nonzero
    rows of each matrix are those left after skipping the dependent rows.
    A NaN pivot raises too; with ``drop`` it is kept, and its NaN spreads to
    the later rows for the callers' finite checks to refuse.
    """
    out = np.empty_like(mats)
    done = []  # the finished rows, contiguous copies of out[:, j], j < i
    for i in range(mats.shape[1]):
        v = mats[:, i].copy()
        for _ in range(2):  # second pass for numerical orthogonality
            for b in done:
                v -= np.vecdot(v, b)[:, None] * b
        norm = _row_norms(v)
        if drop:
            lost = norm < pivot_tol
            finished = np.where(lost[:, None], 0.0,
                                v / np.where(lost, 1.0, norm)[:, None])
        else:
            _require_rows(norm >= pivot_tol, DegenerateInputError,
                          lambda row: f"gram_schmidt pivot {norm[row]:.3e} below "
                                      f"{pivot_tol:.1e}")
            finished = v / norm[:, None]
        out[:, i] = finished
        done.append(finished)
    return out


def _matvec_rows(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``mat @ v`` for each row v of ``vecs`` (..., n), with ``mat`` one
    matrix or one per row: the BLAS matrix-vector product of the one-vector
    call, row by row (a 2-d product would round differently)."""
    return np.matmul(mat, vecs[..., None])[..., 0]


# -- per-index random streams -------------------------------------------------
#
# Sample idx of a run draws from its own stream np.random.default_rng((seed,
# idx)): a SeedSequence over the words of seed and idx seeds a PCG64.
# stream_normals seeds a whole block of such streams at once with the
# constants of numpy's SeedSequence (bit_generator.pyx) and of PCG64's
# seeding (pcg64.h). NEP 19 keeps both streams fixed across numpy releases;
# each call checks its first row against default_rng all the same.

_SEED_POOL = 4
_SEED_INIT_A = 0x43B0D7E5
_SEED_MULT_A = 0x931E8875
_SEED_INIT_B = 0x8B51F9DD
_SEED_MULT_B = 0x58F38DED
_SEED_MIX_L = 0xCA01F9DD
_SEED_MIX_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list:
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    out = [n & _MASK32]
    while n >> 32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _hash_consts(const: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constant over ``count`` hash calls, const * mult**t
    as uint32: call t xors in entry t and multiplies by entry t + 1."""
    return np.cumprod(np.array([const] + [mult] * count, np.uint32),
                     dtype=np.uint32)


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each column of ``value``, with consecutive ``consts``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_SEED_MIX_L) * x - np.uint32(_SEED_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _pcg64_states(entropy: np.ndarray) -> list:
    """PCG64's (state, inc) after seeding from ``SeedSequence(row)`` for
    each row of the (N, L) uint32 ``entropy``, as Python ints."""
    n, width = len(entropy), entropy.shape[1]
    const = _hash_consts(_SEED_INIT_A, _SEED_MULT_A, _SEED_POOL * max(_SEED_POOL, width))
    with np.errstate(over="ignore"):
        # a pool word past the entropy hashes 0, as a zero column does
        pool = np.zeros((n, _SEED_POOL), np.uint32)
        pool[:, :width] = entropy[:, :_SEED_POOL]
        pool = _hash(pool, const[:_SEED_POOL + 1])
        # a source word is hashed once for each other word it mixes into
        for src in range(_SEED_POOL):
            t = _SEED_POOL + (_SEED_POOL - 1) * src
            dst = np.arange(_SEED_POOL) != src
            pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None],
                                                    const[t:t + _SEED_POOL]))
        for src in range(_SEED_POOL, width):
            t = _SEED_POOL * src
            pool = _mix(pool, _hash(entropy[:, src, None],
                                    const[t:t + _SEED_POOL + 1]))
        # generate_state(4, np.uint64): eight words, two per uint64
        state = _hash(pool[:, np.arange(8) % _SEED_POOL],
                      _hash_consts(_SEED_INIT_B, _SEED_MULT_B, 8))
    # pcg_setseq_128_srandom_r, initstate (w0, w1) and initseq (w2, w3)
    words = np.ascontiguousarray(state, dtype="<u4").view("<u8").tolist()
    return [(((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc)
            for w0, w1, w2, w3 in words
            for inc in [(w2 << 65 | w3 << 1 | 1) & _MASK128]]


def stream_normals(seed: int, first: int, out: np.ndarray) -> np.ndarray:
    """Fill each row ``out[j]`` (at least one row, any trailing shape) with
    the standard normals of ``np.random.default_rng((seed, first + j))``,
    bit for bit; returns ``out``.

    The streams are seeded together and drawn through one reused PCG64. Row
    0 is also drawn through ``default_rng``; a numpy whose streams differ
    from the seeding reproduced here is refused with ``RuntimeError``.
    """
    gen = np.random.default_rng((seed, first))
    check = gen.standard_normal(out.shape[1:])
    bitgen = gen.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
             "uinteger": 0}
    head = _words(seed)
    j = 0
    while j < len(out):
        # a pass ends before the index's low word wraps, so its other words,
        # and the length of its entropy, are those of every row
        words = _words(first + j)
        stop = min(len(out), j + (1 << 32) - words[0])
        entropy = np.tile(np.array(head + words, np.uint32), (stop - j, 1))
        entropy[:, len(head)] += np.arange(stop - j, dtype=np.uint32)
        for k, (pcg["state"], pcg["inc"]) in enumerate(_pcg64_states(entropy),
                                                      start=j):
            bitgen.state = state
            gen.standard_normal(out=out[k])
        j = stop
    if not np.array_equal(out[0], check):
        raise RuntimeError(
            f"numpy {np.__version__} seeds default_rng((seed, idx)) streams "
            "differently from stream_normals")
    return out


# Indices per run of the scans and the quadrature: enough to spread numpy's
# per-call overhead thin, few enough that a run's S^15 matrices take 0.5 MB.
_STREAM_CHUNK = 256


def stream_chunks(seed: int, stream0: int, count: int, chunk: int,
                  shape: tuple, label: str, fn: Callable) -> dict:
    """The values that ``fn(start, draws)`` names, one (count,) array per
    name over the indices 0 .. count - 1, from runs of up to ``chunk``: row j
    of ``draws`` holds the ``shape`` standard normals of index start + j's
    stream (seed, stream0 + start + j), drawn by one ``stream_normals`` call
    into a buffer that the next run reuses. ``fn`` returns one value per row
    for each name: another shape is a DegenerateInputError, a non-finite
    value a FloatingPointError "non-finite <name>" (the first failing row,
    and in it the first failing name). A row failure (an error with ``row``)
    is re-raised with that index as its row and, in place of the row, in its
    message: "``label`` idx, seed tuple (seed, stream0 + idx)".
    """
    buf = np.empty((min(chunk, count),) + shape)
    runs = []
    for start in range(0, count, chunk):
        draws = stream_normals(seed, stream0 + start, buf[:count - start])
        try:
            # copied: a value may be a view of the buffer the next run reuses
            values = {k: np.array(v, dtype=float) for k, v in fn(start, draws).items()}
            for name, col in values.items():
                if col.shape != (len(draws),):
                    raise DegenerateInputError(
                        f"{name} gave shape {col.shape} for {len(draws)} rows")
            finite = np.isfinite(np.column_stack(list(values.values())))
            _require_rows(finite, FloatingPointError, lambda row: (
                f"non-finite {list(values)[int(np.argmin(finite[row]))]}"))
        except Exception as exc:
            if hasattr(exc, "row"):
                row, exc.row = exc.row, start + exc.row
                exc.args = (f"{str(exc).removesuffix(f' (row {row})')}: {label} "
                            f"{exc.row}, seed tuple ({seed}, {stream0 + exc.row})",)
            raise
        runs.append(values)
    return {name: np.concatenate([run[name] for run in runs]) for name in runs[0]}


@dataclass(frozen=True)
class SphereSpec:
    """The round sphere S^{n+1}(r) sitting in R^{n+2}.

    ``ambient_dim`` is n+2, ``radius`` is r. The sectional curvature is the
    constant 1/r**2.
    """

    ambient_dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.ambient_dim < 3:
            raise DegenerateInputError("ambient_dim must be >= 3")
        if not (self.radius > 0):
            raise DegenerateInputError("radius must be positive")

    @property
    def dim(self) -> int:
        """Intrinsic sphere dimension n+1."""
        return self.ambient_dim - 1

    @property
    def curvature_constant(self) -> float:
        return 1.0 / self.radius ** 2

    @property
    def is_unit(self) -> bool:
        """Unit radius, the setting of the Hopf-specific closed forms."""
        return abs(self.radius - 1.0) <= 1e-12

    @property
    def fd_step(self) -> float:
        return FD_STEP_FACTOR * self.radius

    # -- points and tangent vectors ------------------------------------

    def point(self, coords) -> "SpherePoint":
        """Wrap ambient coordinates as a point, normalizing onto the sphere:
        the one-row ``stacked_points``, checked once, by ``SpherePoint``."""
        arr = np.asarray(coords, dtype=float)
        return SpherePoint(self, self._normalized_rows(arr[None])[0])

    def zero_tangent(self, p: "SpherePoint") -> "TangentVector":
        return TangentVector(p, np.zeros(self.ambient_dim))

    def project_array(self, p_coords: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Tangential projection v - <v,p>/r^2 p at the points ``p_coords``.

        ``vec`` holds one vector per point (as many axes as ``p_coords``,
        broadcasting), projected as (<v,p>/r^2) p, or a stack of rows per
        point (one more axis), projected as (<v,p> p)/r^2."""
        scale = self.radius ** 2
        if vec.ndim == p_coords.ndim:
            return vec - (np.vecdot(vec, p_coords) / scale)[..., None] * p_coords
        return vec - np.matmul(vec, p_coords[..., None]) * p_coords[..., None, :] \
            / scale

    # -- curvature -------------------------------------------------------

    def curvature_array(self, x: np.ndarray, y: np.ndarray,
                        z: np.ndarray) -> np.ndarray:
        """R(X,Y)Z = (1/r^2) (<Y,Z> X - <X,Z> Y); row by row for 2-d inputs."""
        k = self.curvature_constant
        return k * (np.vecdot(y, z)[..., None] * x - np.vecdot(x, z)[..., None] * y)

    # -- geodesics and covariant derivatives ---------------------------------

    def _geodesic_coords(self, p_coords: np.ndarray, unit_dir: np.ndarray,
                         t: float) -> np.ndarray:
        """Arc-length geodesic cos(t/r) p + r sin(t/r) v for a unit v."""
        s = t / self.radius
        return math.cos(s) * p_coords + self.radius * math.sin(s) * unit_dir

    def fd_derivative_array(self, fn: Callable[[np.ndarray], np.ndarray],
                            p_coords: np.ndarray,
                            direction: np.ndarray) -> np.ndarray:
        """Projected central-difference derivative of an array-valued map.

        ``fn`` maps ambient coordinates of a sphere point to an array; the
        derivative is taken along the geodesic from p in ``direction`` and
        projected back to the tangent space at p, each vector of the value
        rounded like a 1-d value. The step is ``fd_step``.

        ``direction`` is one vector or rows ``(k, ambient)``. For rows,
        ``fn`` is called once on the ``(k, ambient)`` stack of displaced
        points on each side and must return one value per row; row i of the
        result is the one-direction call for row i. A zero direction gives
        zero: both of its displaced points are cos(h/r) p, so their values
        cancel exactly.

        ``p_coords`` is one point ``(ambient,)`` or a stack ``(N, ambient)``
        whose leading axis leads ``direction`` too, ``(N, k, ambient)``:
        ``fn`` then gets the displaced points with their leading axes, and
        row n of the result is the one-point call at point n.
        """
        # p with an axis inserted, after its own leading axes, for each
        # further axis of an ndim-array: one vector per row at its point
        def at(ndim):
            extra = (None,) * (ndim - p_coords.ndim)
            return p_coords[(...,) + extra + (slice(None),)]

        # the norm written out: _row_norms is the direct route's, not shared
        speed = np.sqrt(np.vecdot(direction, direction))
        h = self.fd_step
        u = direction / np.where(speed == 0.0, 1.0, speed)[..., None]
        p_dir = at(u.ndim)
        plus = np.asarray(fn(self._geodesic_coords(p_dir, u, h)), dtype=float)
        minus = np.asarray(fn(self._geodesic_coords(p_dir, u, -h)), dtype=float)
        rate = (speed / (2.0 * h))[(...,) + (None,) * (plus.ndim - speed.ndim)]
        diff = (plus - minus) * rate
        return self.project_array(at(diff.ndim), diff)

    # -- sampling and frames ----------------------------------------------

    def random_point(self, rng: np.random.Generator) -> "SpherePoint":
        return self.point(rng.standard_normal(self.ambient_dim))

    def frames_at(self, p: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Each (k, ambient) block of ``raw`` (N, k, ambient) projected at its
        row of ``p`` (N, ambient) and orthonormalized in order (modified
        Gram-Schmidt): N tangent k-frames, checked row by row."""
        frames = _gram_schmidt_stack(self.project_array(p, raw),
                                     pivot_tol=GS_PIVOT_TOL, drop=False)
        _check_tangent_stack(self.radius, p, frames)
        _check_frames_stack(frames)
        return frames

    # Stacked samplers: row i of ``draws`` holds the standard normals that
    # sample i's own generator gives the one-sample calls, in their order.
    # The arithmetic and the checks are those of the one-sample path.

    def stacked_points(self, draws: np.ndarray) -> np.ndarray:
        """``point`` for each row of ``draws`` (N, ambient), so also
        random_point: the rows normalized onto the sphere and checked row by
        row."""
        coords = self._normalized_rows(draws)
        _check_points_stack(self.radius, coords)
        return coords

    def _normalized_rows(self, draws: np.ndarray) -> np.ndarray:
        norms = _row_norms(draws)
        _require_rows(norms >= GS_PIVOT_TOL, DegenerateInputError,
                      "cannot normalize a near-zero vector")
        with np.errstate(invalid="ignore"):  # an inf row gives inf * 0, NaN
            return draws * (self.radius / norms)[..., None]

    def stacked_tangents(self, draws: np.ndarray) -> tuple:
        """random_point, then a tangent vector per further row (the row
        projected onto the tangent space), for each (1 + k, ambient) block
        of ``draws`` (N, 1 + k, ambient).

        Returns the points (N, ambient) and the tangents (N, k, ambient).
        """
        p = self.stacked_points(draws[:, 0])
        t = self.project_array(p[:, None, :], draws[:, 1:])
        _check_tangent_stack(self.radius, p, t)
        return p, t

    def stacked_frames(self, draws: np.ndarray) -> tuple:
        """random_point, then ``frames_at`` the point from the further rows,
        for each (1 + dim, ambient) block of ``draws`` (N, 1 + dim, ambient).

        Returns the points (N, ambient) and the frames (N, dim, ambient).
        """
        p = self.stacked_points(draws[:, 0])
        return p, self.frames_at(p, draws[:, 1:])

    def standard_frame_rows(self, P: np.ndarray) -> np.ndarray:
        """Deterministic orthonormal tangent frame from the ambient basis.

        Projects the standard basis vectors onto the tangent space and
        orthonormalizes, skipping the one direction that collapses.
        ``P`` is an (N, ambient) stack of points, giving (N, dim, ambient);
        a point that does not drop exactly one direction raises naming its
        row.
        """
        amb = self.ambient_dim
        candidates = self.project_array(
            P, np.broadcast_to(np.eye(amb), (len(P), amb, amb)))
        rows = _gram_schmidt_stack(candidates, pivot_tol=1e-6, drop=True)
        kept = np.any(rows != 0.0, axis=2)
        _require_rows(np.count_nonzero(kept, axis=1) == self.dim,
                      DegenerateInputError, "standard frame construction collapsed")
        return rows[kept].reshape(len(P), self.dim, amb)


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """A point, or with a leading axis (N, ambient) a stack of N points."""

    sphere: SphereSpec
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_readonly(self.coords))
        amb = self.sphere.ambient_dim
        if self.coords.ndim not in (1, 2) or self.coords.shape[-1] != amb:
            raise DegenerateInputError(
                f"point has shape {self.coords.shape}, expected ({amb},) or (N, {amb})")
        _check_points_stack(self.sphere.radius, self.coords.reshape(-1, amb))

    def __repr__(self):
        return f"SpherePoint({np.array2string(np.asarray(self.coords), precision=6)})"


def _one_point(p: SpherePoint) -> np.ndarray:
    """The coordinates of ``p``, which must be one point, not a stack."""
    if p.coords.ndim != 1:
        raise DegenerateInputError(f"point has shape {p.coords.shape}, expected "
                                   f"one point ({p.sphere.ambient_dim},)")
    return p.coords


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An ambient vector attached at a base point, orthogonal to it; at a
    stack of points, one vector per point. ``vec`` may instead hold rows per
    point, ``coords.shape[:-1] + (k, ambient)``: each row is checked at its
    point, and a failing one names its point."""

    base: SpherePoint
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _as_readonly(self.vec))
        coords, shape = self.base.coords, self.vec.shape
        if shape != coords.shape and shape[:-2] + shape[-1:] != coords.shape:
            raise DegenerateInputError("tangent vector has wrong dimension")
        points = coords.reshape(-1, coords.shape[-1])
        _check_tangent_stack(self.base.sphere.radius, points,
                             self.vec.reshape(points.shape[:1] + shape[coords.ndim - 1:]))

    def __repr__(self):
        return f"TangentVector({np.array2string(np.asarray(self.vec), precision=6)})"


@dataclass(frozen=True, eq=False)
class Frame:
    """k orthonormal tangent vectors at a point, the rows of ``matrix`` (k,
    ambient); at a stack of N points, one frame per point, (N, k, ambient).
    The rows are checked once, through one ``TangentVector``; ``frame[i]``
    is row i as a ``TangentVector``."""

    base: SpherePoint
    matrix: np.ndarray

    def __post_init__(self):
        coords, shape = self.base.coords, np.shape(self.matrix)
        if len(shape) != coords.ndim + 1 or shape[:-2] + shape[-1:] != coords.shape:
            raise DegenerateInputError(f"frame has shape {shape} at base shape {coords.shape}")
        if not 1 <= shape[-2] <= self.base.sphere.dim:
            raise DegenerateInputError(f"frame has {shape[-2]} vectors, expected 1 to "
                                       f"{self.base.sphere.dim}")
        matrix = TangentVector(self.base, self.matrix).vec
        _check_frames_stack(matrix.reshape((-1,) + shape[-2:]))
        object.__setattr__(self, "matrix", matrix)

    def __len__(self):
        return self.matrix.shape[-2]

    def __getitem__(self, idx) -> TangentVector:
        return TangentVector(self.base, self.matrix[..., idx, :])


def _check_same_base(a: np.ndarray, b: np.ndarray,
                     message: str = "objects are attached at different points"
                     ) -> None:
    """Refuse two base points (or bundle anchors) whose ambient arrays differ
    by more than _BASE_MATCH_TOL in some entry."""
    if not np.max(np.abs(a - b)) <= _BASE_MATCH_TOL:
        raise BasePointMismatchError(message)
