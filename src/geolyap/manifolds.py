"""Closed-form Riemannian geometry kernel for a fixed family of manifolds.

Four complete manifolds are built in: Euclidean space, the unit sphere S^n,
the rotation group SO(3) with its bi-invariant metric, and the hyperbolic
plane in the hyperboloid model.  Points live in an embedding-space
representation (unit vectors, rotation matrices, Minkowski hyperboloid), so
every operation -- metric, exponential/logarithm maps, distance, parallel
transport along minimizing geodesics -- is an exact coordinate-free formula.
Constraint drift is repaired by projection: ``exp`` projects the closed-form
geodesic point, which ``geodesic`` returns bare for points that are not kept
(an integrator's stage points).  Every kernel op is vectorized over leading
batch axes, so a single point and a batch of points run the same code.

Pairs at or beyond each other's cut locus are rejected explicitly
(:class:`CutLocusError`) rather than resolved by an arbitrary choice of
geodesic.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

CUT_MARGIN = 1e-6        # reject pairs within this angle of the cut locus
_TINY = 1e-15


class GeometryError(ValueError):
    """Base class for geometry usage and domain errors."""


class ManifoldMismatchError(GeometryError):
    """Operands live on different manifolds or in different tangent spaces."""


class CutLocusError(GeometryError):
    """The requested pair sits at or beyond each other's cut locus."""

    def __init__(self, message: str, x=None, y=None):
        super().__init__(message)
        self.pair = (x, y)


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on a manifold in the embedding representation (batched flow
    routines also take a stack of points with leading axes)."""

    manifold: "Manifold"
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.array(self.coords, dtype=float))
        self.coords.setflags(write=False)

    def __repr__(self):
        return f"ManifoldPoint({self.manifold.name}, {self.coords.ravel().tolist()})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector: base point plus embedding-space components."""

    base: ManifoldPoint
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", np.array(self.components, dtype=float))
        self.components.setflags(write=False)

    @property
    def manifold(self) -> "Manifold":
        return self.base.manifold

    @property
    def norm(self) -> float:
        m = self.base.manifold
        return m.norm(self.base.coords, self.components)

    def __repr__(self):
        return f"TangentVector({self.manifold.name}, |v|={np.round(self.norm, 6)})"


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(a, a))


def _where(cond, a, b):
    """``np.where`` that gives a NumPy scalar, not a 0-d array, for a single row."""
    return np.where(cond, a, b)[()]


def _reject_cut(angle, coords, other, message: str):
    if (angle > math.pi - CUT_MARGIN).any():
        raise CutLocusError(message, coords, other)


class Manifold(ABC):
    """Closed-form geometry kernel for one manifold.

    The abstract methods form the raw ndarray layer used by integrators and
    estimators.  They take arrays ``(..., *ambient_shape)`` whose leading
    (batch) axes broadcast row by row; a single point has none.  A check that
    fails on any row raises for the whole call.  ``point``/``tangent`` wrap
    validated arrays into :class:`ManifoldPoint` / :class:`TangentVector`.
    All operations are pure and instances are stateless.
    """

    name: str
    dim: int
    ambient_shape: tuple
    cut_locus_radius: float

    # -- raw ndarray kernel -------------------------------------------------

    @abstractmethod
    def project(self, coords: np.ndarray) -> np.ndarray:
        """Repair constraint drift: map an ambient array onto the manifold."""

    @abstractmethod
    def project_tangent(self, coords: np.ndarray, ambient: np.ndarray) -> np.ndarray:
        """Project an ambient array onto the tangent space at ``coords``."""

    @abstractmethod
    def constraint_violation(self, coords: np.ndarray):
        """Residual of the manifold constraint at ``coords`` (0 when exact)."""

    @abstractmethod
    def inner(self, coords: np.ndarray, u: np.ndarray, v: np.ndarray):
        """Riemannian inner product of tangents ``u``, ``v`` at ``coords``."""

    @abstractmethod
    def geodesic(self, coords: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`exp` without its projection: on the manifold to rounding."""

    def exp(self, coords: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Geodesic endpoint at parameter 1 from ``coords`` with velocity ``v``."""
        return self.project(self.geodesic(coords, v))

    @abstractmethod
    def log(self, coords: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Initial velocity of the minimizing geodesic ``coords`` -> ``other``."""

    @abstractmethod
    def dist(self, coords: np.ndarray, other: np.ndarray):
        """Riemannian (geodesic) distance."""

    @abstractmethod
    def transport(self, coords: np.ndarray, other: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Parallel transport of ``v`` along the minimizing geodesic."""

    @abstractmethod
    def transport_back(self, coords: np.ndarray, v: np.ndarray, end: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
        """Parallel transport of ``w`` from ``end = exp(coords, v)`` back to ``coords``.

        The transport runs along the geodesic s -> exp(coords, s v), which the
        caller has already taken, for |v| below the cut-locus radius (the
        stages of an integrator step are far shorter).  It equals
        ``transport(end, coords, w)`` but, since the geodesic is known, forms
        no logarithm and checks no cut locus.
        """

    @abstractmethod
    def random_point(self, rng: np.random.Generator) -> np.ndarray: ...

    def rows(self, values) -> np.ndarray:
        """Per-row scalars shaped to broadcast against ``(..., *ambient_shape)`` arrays."""
        a = np.asarray(values)
        return a.reshape(a.shape + (1,) * len(self.ambient_shape))

    def norm(self, coords: np.ndarray, v: np.ndarray):
        return np.sqrt(np.maximum(self.inner(coords, v, v), 0.0))

    def random_tangent(self, rng: np.random.Generator, coords: np.ndarray,
                       norm: float = 1.0) -> np.ndarray:
        """Random tangent at one point, of the requested norm, uniform in direction."""
        for _ in range(16):
            v = self.project_tangent(coords, rng.standard_normal(self.ambient_shape))
            n = self.norm(coords, v)
            if n > 1e-12:
                return v * (norm / n)
        raise GeometryError("could not sample a nondegenerate tangent direction")

    def tangent_basis(self, coords: np.ndarray) -> np.ndarray:
        """Orthonormal tangent bases, shape ``(..., dim, *ambient_shape)``.

        Per row: Gram-Schmidt of the projected ambient axes in order, skipping
        axes that are (nearly) normal, so each row keeps its own choice of
        axes; deterministic.
        """
        coords = np.asarray(coords, dtype=float)
        amb = self.ambient_shape
        lead = coords.shape[:coords.ndim - len(amb)]
        flat = coords.reshape((-1,) + amb)
        n_rows, size = len(flat), int(np.prod(amb))
        axes = np.broadcast_to(
            self.project_tangent(flat[:, None], np.eye(size).reshape((size,) + amb)),
            (n_rows, size) + amb)
        basis = np.zeros((n_rows, self.dim) + amb)
        count = np.zeros(n_rows, dtype=int)
        rows = np.arange(n_rows)
        for i in range(size):
            v = axes[:, i]
            for j in range(min(i, self.dim)):  # unfilled slots are zero: nothing to subtract
                b = basis[:, j]
                v = v - self.rows(self.inner(flat, v, b)) * b
            n = self.norm(flat, v)
            take = (n > 1e-8) & (count < self.dim)
            basis[rows[take], count[take]] = v[take] / self.rows(n[take])
            count += take
            if count.min() == self.dim:
                return basis.reshape(lead + (self.dim,) + amb)
        raise GeometryError(f"degenerate tangent basis at {coords!r}")

    # -- wrapper layer ------------------------------------------------------

    def point(self, coords) -> ManifoldPoint:
        """Validate, project, and wrap ambient coordinates as a point."""
        arr = np.array(coords, dtype=float)
        if arr.size == int(np.prod(self.ambient_shape)):
            arr = arr.reshape(self.ambient_shape)
        else:
            raise GeometryError(
                f"{self.name} expects {self.ambient_shape} coordinates, got shape {arr.shape}")
        return ManifoldPoint(self, self.project(arr))

    def tangent(self, base: ManifoldPoint, components) -> TangentVector:
        if base.manifold != self:
            raise ManifoldMismatchError(f"base point lives on {base.manifold.name}, not {self.name}")
        arr = np.array(components, dtype=float).reshape(self.ambient_shape)
        return TangentVector(base, self.project_tangent(base.coords, arr))

    def __eq__(self, other):
        return type(self) is type(other) and self.dim == other.dim

    def __hash__(self):
        return hash((type(self).__name__, self.dim))

    def __repr__(self):
        return self.name


class Euclidean(Manifold):
    """Flat R^n with the standard inner product."""

    def __init__(self, n: int):
        if n < 1:
            raise GeometryError("dimension must be positive")
        self.dim = n
        self.name = f"euclidean{n}"
        self.ambient_shape = (n,)
        self.cut_locus_radius = math.inf

    def project(self, coords):
        return np.array(coords, dtype=float)

    def project_tangent(self, coords, ambient):
        return np.array(ambient, dtype=float)

    def constraint_violation(self, coords):
        return np.zeros(np.shape(coords)[:-1])[()]

    def inner(self, coords, u, v):
        return np.vecdot(u, v)

    def geodesic(self, coords, v):
        return coords + v

    def log(self, coords, other):
        return other - coords

    def dist(self, coords, other):
        return _norm(other - coords)

    def transport(self, coords, other, v):
        return np.array(v, dtype=float)

    def transport_back(self, coords, v, end, w):
        return w

    def random_point(self, rng):
        return rng.standard_normal(self.dim)


class Sphere(Manifold):
    """Unit sphere S^n embedded in R^{n+1} with the induced metric."""

    def __init__(self, n: int):
        if n < 1:
            raise GeometryError("dimension must be positive")
        self.dim = n
        self.name = f"sphere{n}"
        self.ambient_shape = (n + 1,)
        self.cut_locus_radius = math.pi

    def project(self, coords):
        nrm = _norm(coords)
        if (nrm < _TINY).any():
            raise GeometryError("cannot project the origin onto the sphere")
        return coords / nrm[..., None]

    def project_tangent(self, coords, ambient):
        return ambient - np.vecdot(coords, ambient)[..., None] * coords

    def constraint_violation(self, coords):
        return np.abs(_norm(coords) - 1.0)

    def inner(self, coords, u, v):
        return np.vecdot(u, v)

    def geodesic(self, coords, v):
        # Rows with |v| below _TINY move by less than 1e-15: no special case.
        theta = _norm(v)
        return (np.cos(theta)[..., None] * coords
                + (np.sin(theta) / np.maximum(theta, _TINY))[..., None] * v)

    def _log_parts(self, coords, other):
        c = np.vecdot(coords, other)
        w = other - c[..., None] * coords
        s = _norm(w)
        return c, w, s, np.arctan2(s, c)

    def log(self, coords, other):
        _, w, s, theta = self._log_parts(coords, other)
        _reject_cut(theta, coords, other, "antipodal pair: logarithm map is not unique")
        return self.project_tangent(coords, (theta / np.maximum(s, _TINY))[..., None] * w)

    def dist(self, coords, other):
        theta = self._log_parts(coords, other)[3]
        return _where((coords == other).all(axis=-1), 0.0, theta)

    def transport(self, coords, other, v):
        c, _, _, theta = self._log_parts(coords, other)
        _reject_cut(theta, coords, other, "antipodal pair: transport geodesic is not unique")
        factor = np.vecdot(other, v) / (1.0 + c)
        return self.project_tangent(other, v - factor[..., None] * (coords + other))

    def transport_back(self, coords, v, end, w):
        # The transport formula above, without the logarithm's cut check.
        factor = np.vecdot(coords, w) / (1.0 + np.vecdot(coords, end))
        return w - factor[..., None] * (coords + end)

    def tangent_basis(self, coords):
        """On S^2, the Gram-Schmidt frame in closed form: b0 = (e0 - x0 x) / |.|
        and b1 = +-x cross b0 = +-(0, x2, -x1) / |.|, signed as Gram-Schmidt
        signs it (positive along e1, or along e2 when b1 is normal to e1).
        Rows with |e0 - x0 x| <= 1e-8, and other dimensions, take the generic
        frame."""
        coords = np.asarray(coords, dtype=float)
        if self.dim != 2:
            return super().tangent_basis(coords)
        a0 = -coords[..., :1] * coords
        a0[..., 0] += 1.0
        n0 = np.maximum(_norm(a0), _TINY)
        c1, c2 = coords[..., 2] / n0, -coords[..., 1] / n0
        sign = np.sign(np.where(np.abs(c1) > 1e-8, c1, c2))
        basis = np.empty(coords.shape[:-1] + (2, 3))
        basis[..., 0, :] = a0 / n0[..., None]
        basis[..., 1, 0] = 0.0
        basis[..., 1, 1] = sign * c1
        basis[..., 1, 2] = sign * c2
        generic = n0 <= 1e-8
        if generic.any():
            basis[generic] = super().tangent_basis(coords[generic])
        return basis

    def random_point(self, rng):
        return self.project(rng.standard_normal(self.dim + 1))


_EYE3 = np.eye(3)
# hat(w) = w @ _HAT_BASIS, flattened row-major; each entry picks one +/- w_k.
_HAT_BASIS = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                       [0, 0, 1, 0, 0, 0, -1, 0, 0],
                       [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)
_VEE_INDEX = [7, 2, 3]  # flat positions of W[2, 1], W[0, 2], W[1, 0]


def _hat(w: np.ndarray) -> np.ndarray:
    return (w @ _HAT_BASIS).reshape(w.shape[:-1] + (3, 3))


def _flat(A: np.ndarray) -> np.ndarray:
    return A.reshape(A.shape[:-2] + (9,))


def _vee(W: np.ndarray) -> np.ndarray:
    return _flat(W)[..., _VEE_INDEX]


def _frobenius(A: np.ndarray) -> np.ndarray:
    return _norm(_flat(A))


def _rodrigues(w: np.ndarray) -> np.ndarray:
    """Rotation matrices exp(hat(w)) by the Rodrigues formula."""
    theta2 = np.vecdot(w, w)
    theta = np.sqrt(theta2)
    K = _hat(w)
    small = theta < 1e-8
    if small.any():  # series coefficients on those rows
        safe, safe2 = np.where(small, 1.0, theta), np.where(small, 1.0, theta2)
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
        b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / safe2)
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return _EYE3 + a[..., None, None] * K + b[..., None, None] * (K @ K)


def _rotation_angle(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation angles theta of Q, and s = vee(Q - Q^T) / 2 = sin(theta) * axis."""
    s = 0.5 * _vee(Q - Q.mT)
    c = 0.5 * (np.trace(Q, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(_norm(s), c), s


def _near_pi_axis(Q: np.ndarray, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation vectors of a stack of rotations with angles near pi.

    The axis comes from the symmetric part (largest diagonal entry as pivot),
    oriented by the skew part ``v``.
    """
    c = np.cos(theta)[:, None]
    n = np.sqrt(np.clip((np.diagonal(Q, axis1=-2, axis2=-1) - c) / (1.0 - c), 0.0, None))
    rows = np.arange(len(n))
    k = np.argmax(n, axis=-1)
    nk = n[rows, k]
    S = 0.5 * (Q + Q.mT)
    from_pivot = S[rows, :, k] / ((1.0 - c) * np.where(nk > 0, nk, 1.0)[:, None])
    n = np.where((np.arange(3) != k[:, None]) & (nk > 0)[:, None], from_pivot, n)
    n = n / _norm(n)[:, None]
    n = np.where((np.vecdot(v, n) < 0.0)[:, None], -n, n)
    return theta[:, None] * n


def _rotation_vector(Q: np.ndarray, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation vectors of Q with angles theta in [0, pi) and v = sin(theta) *
    axis; the caller rejects angles near pi."""
    theta = np.asarray(theta)
    small = theta < 1e-7
    if small.any():  # series scale on those rows
        scale = np.where(small, 1.0 + theta * theta / 6.0,
                         theta / np.sin(np.where(small, 1.0, theta)))
    else:
        scale = theta / np.sin(theta)
    out = v * scale[..., None]
    near_pi = theta >= 2.9
    if np.any(near_pi):
        out[near_pi] = _near_pi_axis(Q[near_pi], theta[near_pi], v[near_pi])
    return out


def _polar(A: np.ndarray) -> np.ndarray:
    """Nearest rotations of a stack of matrices by SVD."""
    U, _, Vt = np.linalg.svd(A)
    signs = np.ones(U.shape[:-1])
    signs[..., 2] = np.sign(np.linalg.det(U @ Vt))
    return (U * signs[..., None, :]) @ Vt


class SpecialOrthogonal3(Manifold):
    """Rotation matrices with the bi-invariant metric <U,V> = tr(Ou^T Ov)/2.

    The scaling makes geodesic distance equal to the rotation angle.  Tangent
    vectors at R are stored as R @ Omega with Omega skew-symmetric.
    """

    def __init__(self):
        self.dim = 3
        self.name = "so3"
        self.ambient_shape = (3, 3)
        self.cut_locus_radius = math.pi

    def project(self, coords):
        # Cheap Newton polish for near-rotations, full polar projection otherwise.
        G = coords.mT @ coords
        newton = (_frobenius(G - _EYE3) < 1e-8) & (np.linalg.det(coords) > 0)
        if newton.all():
            R = coords @ (1.5 * _EYE3 - 0.5 * G)
            return R @ (1.5 * _EYE3 - 0.5 * (R.mT @ R))
        out = np.empty(np.shape(coords))
        if newton.any():
            R = coords[newton] @ (1.5 * _EYE3 - 0.5 * G[newton])
            out[newton] = R @ (1.5 * _EYE3 - 0.5 * (R.mT @ R))
        out[~newton] = _polar(coords[~newton])
        return out

    def project_tangent(self, coords, ambient):
        A = coords.mT @ ambient
        return coords @ (0.5 * (A - A.mT))

    def constraint_violation(self, coords):
        return _frobenius(coords.mT @ coords - _EYE3) + np.abs(np.linalg.det(coords) - 1.0)

    def _alg(self, coords, v) -> np.ndarray:
        A = coords.mT @ v
        return _vee(0.5 * (A - A.mT))

    def inner(self, coords, u, v):
        return np.vecdot(self._alg(coords, u), self._alg(coords, v))

    def geodesic(self, coords, v):
        return coords @ _rodrigues(self._alg(coords, v))

    def log(self, coords, other):
        Q = coords.mT @ other
        theta, s = _rotation_angle(Q)
        _reject_cut(theta, coords, other, "rotation angle at pi: logarithm map is not unique")
        return coords @ _hat(_rotation_vector(Q, theta, s))

    def dist(self, coords, other):
        return _where((coords == other).all(axis=(-2, -1)), 0.0,
                      _rotation_angle(coords.mT @ other)[0])

    def transport(self, coords, other, v):
        Q = coords.mT @ other
        theta, s = _rotation_angle(Q)
        _reject_cut(theta, coords, other, "rotation angle at pi: transport geodesic is not unique")
        H = _rodrigues(0.5 * _rotation_vector(Q, theta, s))
        V = _hat(self._alg(coords, v))
        return self.project_tangent(other, coords @ H @ V @ H)

    def transport_back(self, coords, v, end, w):
        # end = coords R(a) for a = alg(coords, v); the tangent end Omega = hat(omega)
        # transports to coords H Omega H^T = coords hat(H omega) with the half-angle
        # rotation H = R(a/2).  H @ omega[..., None]: np.matvec needs NumPy 2.2.
        H = _rodrigues(0.5 * self._alg(coords, v))
        return coords @ _hat((H @ self._alg(end, w)[..., None])[..., 0])

    def random_point(self, rng):
        return _polar(rng.standard_normal((3, 3)))


class Hyperbolic2(Manifold):
    """Hyperbolic plane, hyperboloid model in Minkowski R^{2,1}.

    Points satisfy <x,x>_M = -1 with x0 > 0, where
    <x,y>_M = -x0*y0 + x1*y1 + x2*y2.
    """

    def __init__(self):
        self.dim = 2
        self.name = "hyperbolic2"
        self.ambient_shape = (3,)
        self.cut_locus_radius = math.inf

    _SIGNATURE = np.array([-1.0, 1.0, 1.0])

    @staticmethod
    def _mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.vecdot(a, b * Hyperbolic2._SIGNATURE)

    def project(self, coords):
        s = -self._mdot(coords, coords)
        if (s <= _TINY).any():
            raise GeometryError("coordinates are not timelike; cannot project")
        x = coords / np.sqrt(s)[..., None]
        return np.where((x[..., 0] > 0)[..., None], x, -x)

    def project_tangent(self, coords, ambient):
        return ambient + self._mdot(coords, ambient)[..., None] * coords

    def constraint_violation(self, coords):
        return np.abs(self._mdot(coords, coords) + 1.0)

    def inner(self, coords, u, v):
        return self._mdot(u, v)

    def geodesic(self, coords, v):
        # Rows with |v| below _TINY move by less than 1e-15: no special case.
        theta = np.sqrt(np.maximum(self._mdot(v, v), 0.0))
        return (np.cosh(theta)[..., None] * coords
                + (np.sinh(theta) / np.maximum(theta, _TINY))[..., None] * v)

    def _log_parts(self, coords, other):
        c = -self._mdot(coords, other)
        w = other - c[..., None] * coords
        return w, np.sqrt(np.maximum(self._mdot(w, w), 0.0))  # s = sinh(distance)

    def log(self, coords, other):
        w, s = self._log_parts(coords, other)
        return self.project_tangent(coords, (np.arcsinh(s) / np.maximum(s, _TINY))[..., None] * w)

    def dist(self, coords, other):
        s = self._log_parts(coords, other)[1]
        return _where((coords == other).all(axis=-1), 0.0, np.arcsinh(s))

    def transport(self, coords, other, v):
        factor = self._mdot(other, v) / (1.0 - self._mdot(coords, other))
        return self.project_tangent(other, v + factor[..., None] * (coords + other))

    def transport_back(self, coords, v, end, w):
        factor = self._mdot(coords, w) / (1.0 - self._mdot(coords, end))
        return w + factor[..., None] * (coords + end)

    def random_point(self, rng):
        origin = np.array([1.0, 0.0, 0.0])
        v = self.project_tangent(origin, rng.standard_normal(3))
        n = self.norm(origin, v)
        if n < 1e-12:
            return origin
        return self.exp(origin, v * (rng.uniform(0.0, 2.0) / n))


_NAME_PATTERNS: list[tuple[re.Pattern, Callable[[re.Match], Manifold]]] = [
    (re.compile(r"^euclidean(\d+)$"), lambda m: Euclidean(int(m.group(1)))),
    (re.compile(r"^sphere(\d+)$"), lambda m: Sphere(int(m.group(1)))),
    (re.compile(r"^so3$"), lambda m: SpecialOrthogonal3()),
    (re.compile(r"^hyperbolic2$"), lambda m: Hyperbolic2()),
]


def manifold_from_name(name: str) -> Manifold:
    """Build a manifold from its registry name, e.g. 'sphere2' or 'euclidean3'."""
    for pattern, builder in _NAME_PATTERNS:
        m = pattern.match(name.strip().lower())
        if m:
            return builder(m)
    raise GeometryError(f"unknown manifold name: {name!r}")


# -- first variation of arc length --------------------------------------------

def _require_same_manifold(*points: ManifoldPoint) -> Manifold:
    m = points[0].manifold
    for p in points[1:]:
        if p.manifold != m:
            raise ManifoldMismatchError(
                f"points live on different manifolds: {m.name} vs {p.manifold.name}")
    return m


def _require_base(x: ManifoldPoint, v: TangentVector):
    if v.base.manifold != x.manifold or not np.array_equal(v.base.coords, x.coords):
        raise ManifoldMismatchError("tangent vector is not based at the given point")


@dataclass(frozen=True)
class FirstVariationTerms:
    """Finite-difference length derivative vs. geodesic boundary term."""

    length_derivative: float
    boundary_term: float

    @property
    def residual(self) -> float:
        return abs(self.length_derivative - self.boundary_term)


def first_variation_terms(x: ManifoldPoint, y: ManifoldPoint,
                          variation: Callable[[float, np.ndarray], ManifoldPoint],
                          h: float) -> FirstVariationTerms:
    """Compare dl/dt of a curve family against the geodesic boundary term.

    ``variation(t, s)`` must be a smooth family of curves over s in
    [0, d(x, y)] whose t = 0 member is the unit-speed minimizing geodesic
    from x to y; it takes a scalar s or an array of s (one point per entry).
    The length derivative at t = 0 is formed by central differences of arc
    lengths discretized on 256 segments, each curve in one call over the
    whole s grid; the boundary term is
    <dF/ds, dF/dt> evaluated at the endpoints.  Both carry O(h^2) error,
    so the residual contracts quadratically as h is halved.
    """
    m = _require_same_manifold(x, y)
    s_hat = m.dist(x.coords, y.coords)
    if s_hat < 1e-9:
        raise GeometryError("degenerate geodesic: endpoints coincide")
    if h <= 0:
        raise GeometryError("variation step h must be positive")
    a0 = variation(0.0, 0.0).coords
    b0 = variation(0.0, s_hat).coords
    if m.dist(a0, x.coords) > 1e-8 * max(1.0, s_hat) or m.dist(b0, y.coords) > 1e-8 * max(1.0, s_hat):
        raise GeometryError("variation(0, .) does not join x to y")

    s_grid = np.linspace(0.0, s_hat, 257)
    ell_plus, ell_minus = (float(np.sum(m.dist(pts[:-1], pts[1:])))
                           for pts in (variation(h, s_grid).coords, variation(-h, s_grid).coords))
    length_derivative = (ell_plus - ell_minus) / (2.0 * h)

    def dt_field(s: float) -> np.ndarray:
        p0 = variation(0.0, s).coords
        vp = m.log(p0, variation(h, s).coords)
        vm = m.log(p0, variation(-h, s).coords)
        return (vp - vm) / (2.0 * h)

    eps_s = s_hat * 1e-4
    u_a = m.log(a0, variation(0.0, eps_s).coords)
    u_a = u_a / m.norm(a0, u_a)
    u_b = -m.log(b0, variation(0.0, s_hat - eps_s).coords)
    u_b = u_b / m.norm(b0, u_b)
    boundary = m.inner(b0, u_b, dt_field(s_hat)) - m.inner(a0, u_a, dt_field(0.0))
    return FirstVariationTerms(length_derivative, boundary)


def endpoint_variation(x: ManifoldPoint, y: ManifoldPoint,
                       w: TangentVector) -> Callable[[float, np.ndarray], ManifoldPoint]:
    """Family of geodesics from x to the moving endpoint exp_y(t w); s scalar or an array."""
    _require_base(y, w)
    m = _require_same_manifold(x, y)
    s_hat = m.dist(x.coords, y.coords)

    def family(t: float, s) -> ManifoldPoint:
        y_t = m.exp(y.coords, t * w.components)
        return ManifoldPoint(m, m.exp(x.coords, m.rows(s / s_hat) * m.log(x.coords, y_t)))

    return family


def interior_variation(x: ManifoldPoint, y: ManifoldPoint,
                       n: TangentVector) -> Callable[[float, np.ndarray], ManifoldPoint]:
    """Endpoint-fixed variation bending the geodesic along transported n; s scalar or an array."""
    _require_base(x, n)
    m = _require_same_manifold(x, y)
    s_hat = m.dist(x.coords, y.coords)

    def family(t: float, s) -> ManifoldPoint:
        g = m.exp(x.coords, m.rows(s / s_hat) * m.log(x.coords, y.coords))
        field = m.transport(x.coords, g, n.components)
        bump = np.sin(math.pi * np.asarray(s) / s_hat)
        return ManifoldPoint(m, m.exp(g, m.rows(t * bump) * field))

    return family

