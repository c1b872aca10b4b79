"""Closed-form Riemannian geometry kernel for a fixed family of manifolds.

Four complete manifolds are built in: Euclidean space, the unit sphere S^n,
the rotation group SO(3) with its bi-invariant metric, and the hyperbolic
plane in the hyperboloid model.  Points live in an embedding-space
representation (unit vectors, rotation matrices, Minkowski hyperboloid), so
every operation -- metric, exponential/logarithm maps, distance, parallel
transport along minimizing geodesics -- is an exact coordinate-free formula.
Constraint drift is repaired by projection: each curved ``exp`` projects its
closed-form geodesic point, and the integrator projects each ambient
Runge-Kutta step once (its stage points are ambient sums, off the manifold
by O(h^2), and take no geodesic).  Every kernel op is vectorized over
leading batch axes, so a single point and a batch of points run the same
code.

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
MAX_DIM = 1000           # largest dimension of euclideanN and sphereN
_TINY = 1e-15


class GeometryError(ValueError):
    """Base class for geometry usage and domain errors."""


class ManifoldMismatchError(GeometryError):
    """Operands live on different manifolds."""


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


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(a, a))


def _where(cond, a, b):
    """``np.where`` that gives a NumPy scalar, not a 0-d array, for a single row."""
    return np.where(cond, a, b)[()]


def _reject_cut(angle, coords, other, message: str):
    if np.count_nonzero(angle > math.pi - CUT_MARGIN):
        raise CutLocusError(message, coords, other)


class Manifold(ABC):
    """Closed-form geometry kernel for one manifold.

    The abstract methods form the raw ndarray layer used by integrators and
    estimators.  They take arrays ``(..., *ambient_shape)`` whose leading
    (batch) axes broadcast row by row; a single point has none.  A check that
    fails on any row raises for the whole call.  ``point`` wraps validated
    coordinates into a :class:`ManifoldPoint`.
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
    def exp(self, coords: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Geodesic endpoint at parameter 1 from ``coords`` with velocity ``v``."""

    @abstractmethod
    def log(self, coords: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Initial velocity of the minimizing geodesic ``coords`` -> ``other``."""

    @abstractmethod
    def dist(self, coords: np.ndarray, other: np.ndarray):
        """Riemannian (geodesic) distance."""

    @abstractmethod
    def transport(self, coords: np.ndarray, other: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Parallel transport of ``v`` along the minimizing geodesic."""

    @property
    def point_variates(self) -> tuple:
        """Shape of what :meth:`draw_point` draws and :meth:`point_map` maps (batched)."""
        return self.ambient_shape

    def draw_point(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        return rng.standard_normal(out=out)

    def point_map(self, variates: np.ndarray) -> np.ndarray:
        return self.project(variates)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return self.point_map(self.draw_point(rng, np.empty(self.point_variates)))

    def rows(self, values) -> np.ndarray:
        """Per-row scalars shaped to broadcast against ``(..., *ambient_shape)`` arrays."""
        a = np.asarray(values)
        return a.reshape(a.shape + (1,) * len(self.ambient_shape))

    def norm(self, coords: np.ndarray, v: np.ndarray):
        return np.sqrt(np.maximum(self.inner(coords, v, v), 0.0))

    def random_tangent(self, rng: np.random.Generator, coords: np.ndarray,
                       norm: float = 1.0) -> np.ndarray:
        """Random tangent at one point, of the requested norm, uniform in direction."""
        return self.tangent_map(rng, coords, rng.standard_normal(self.ambient_shape), norm)

    def random_tangents(self, rng: np.random.Generator, coords: np.ndarray, count: int,
                        norm: Callable[[], float]) -> np.ndarray:
        """``count`` tangents at ``coords``, drawn as ``count`` calls of
        ``random_tangent(rng, coords, norm())`` draw them, mapped in one batch."""
        normals = np.empty((count,) + self.ambient_shape)
        norms = np.empty(count)
        for i in range(count):
            norms[i] = norm()
            rng.standard_normal(out=normals[i])
        return self.tangent_map(rng, coords, normals, norms)

    def tangent_map(self, rng: np.random.Generator, coords: np.ndarray,
                    normals: np.ndarray, norms) -> np.ndarray:
        """:meth:`random_tangent`'s map (batched): ``normals`` projected and scaled to
        ``norms``.  A row projecting to norm <= 1e-12 is redrawn (16 draws at most)."""
        v = self.project_tangent(coords, normals)
        n = np.asarray(self.norm(coords, v))
        for _ in range(15):
            bad = n <= 1e-12
            if not bad.any():
                break
            base = np.broadcast_to(coords, v.shape)[bad]
            v[bad] = self.project_tangent(base, rng.standard_normal(base.shape))
            n[bad] = self.norm(base, v[bad])
        if (n <= 1e-12).any():
            raise GeometryError("could not sample a nondegenerate tangent direction")
        return v * self.rows(norms / n)

    def tangent_basis(self, coords: np.ndarray) -> np.ndarray:
        """Orthonormal basis of the tangent space at one point, shape
        ``(dim, *ambient_shape)``: modified Gram-Schmidt of the projected
        ambient axes in order, skipping axes that are (nearly) normal."""
        size = int(np.prod(self.ambient_shape))
        basis = []
        for v in self.project_tangent(coords, np.eye(size).reshape((size,) + self.ambient_shape)):
            for b in basis:
                v = v - self.inner(coords, v, b) * b
            n = self.norm(coords, v)
            if n > 1e-8:
                basis.append(v / n)
                if len(basis) == self.dim:
                    return np.array(basis)
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

    def __eq__(self, other):
        return type(self) is type(other) and self.dim == other.dim

    def __hash__(self):
        return hash((type(self).__name__, self.dim))

    def __repr__(self):
        return self.name


class Euclidean(Manifold):
    """Flat R^n with the standard inner product."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_DIM:
            raise GeometryError(f"dimension must be between 1 and {MAX_DIM}")
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

    def exp(self, coords, v):
        # The geodesic is a fresh array on the manifold already: no projection copy.
        return coords + v

    def log(self, coords, other):
        return other - coords

    def dist(self, coords, other):
        return _norm(other - coords)

    def transport(self, coords, other, v):
        return np.array(v, dtype=float)


class Sphere(Manifold):
    """Unit sphere S^n embedded in R^{n+1} with the induced metric."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_DIM:
            raise GeometryError(f"dimension must be between 1 and {MAX_DIM}")
        self.dim = n
        self.name = f"sphere{n}"
        self.ambient_shape = (n + 1,)
        self.cut_locus_radius = math.pi

    def project(self, coords):
        nrm = _norm(coords)
        if np.count_nonzero(nrm < _TINY):
            raise GeometryError("cannot project the origin onto the sphere")
        return coords / nrm[..., None]

    def project_tangent(self, coords, ambient):
        return ambient - np.vecdot(coords, ambient)[..., None] * coords

    def constraint_violation(self, coords):
        return np.abs(_norm(coords) - 1.0)

    def inner(self, coords, u, v):
        return np.vecdot(u, v)

    def exp(self, coords, v):
        # Rows with |v| below _TINY move by less than 1e-15: no special case.
        theta = _norm(v)
        return self.project(np.cos(theta)[..., None] * coords
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
    if np.count_nonzero(small):  # series coefficients on those rows
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
    if np.count_nonzero(small):  # series scale on those rows
        scale = np.where(small, 1.0 + theta * theta / 6.0,
                         theta / np.sin(np.where(small, 1.0, theta)))
    else:
        scale = theta / np.sin(theta)
    out = v * scale[..., None]
    near_pi = theta >= 2.9
    if np.count_nonzero(near_pi):
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
        n_newton = np.count_nonzero(newton)
        if n_newton == newton.size:
            R = coords @ (1.5 * _EYE3 - 0.5 * G)
            return R @ (1.5 * _EYE3 - 0.5 * (R.mT @ R))
        out = np.empty(np.shape(coords))
        if n_newton:
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

    def exp(self, coords, v):
        return self.project(coords @ _rodrigues(self._alg(coords, v)))

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

    def point_map(self, variates):
        return _polar(variates)


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
    _ORIGIN = np.array([1.0, 0.0, 0.0])

    @staticmethod
    def _mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.vecdot(a, b * Hyperbolic2._SIGNATURE)

    def project(self, coords):
        s = -self._mdot(coords, coords)
        if np.count_nonzero(s <= _TINY):
            raise GeometryError("coordinates are not timelike; cannot project")
        x = coords / np.sqrt(s)[..., None]
        return np.where((x[..., 0] > 0)[..., None], x, -x)

    def project_tangent(self, coords, ambient):
        return ambient + self._mdot(coords, ambient)[..., None] * coords

    def constraint_violation(self, coords):
        return np.abs(self._mdot(coords, coords) + 1.0)

    def inner(self, coords, u, v):
        return self._mdot(u, v)

    def exp(self, coords, v):
        # Rows with |v| below _TINY move by less than 1e-15: no special case.
        theta = np.sqrt(np.maximum(self._mdot(v, v), 0.0))
        return self.project(np.cosh(theta)[..., None] * coords
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

    def tangent_map(self, rng, coords, normals, norms):
        # Projecting at x tilts the draws radially; at the origin it is isotropic.
        return self.transport(self._ORIGIN, coords,
                              super().tangent_map(rng, self._ORIGIN, normals, norms))

    point_variates = (4,)  # a normal, then a length in [0, 2); a degenerate normal: the origin

    def draw_point(self, rng, out):
        rng.standard_normal(out=out[:3])
        out[3] = rng.uniform(0.0, 2.0)
        return out

    def point_map(self, variates):
        v = self.project_tangent(self._ORIGIN, variates[..., :3])
        n = self.norm(self._ORIGIN, v)
        x = self.exp(self._ORIGIN, v * self.rows(variates[..., 3] / np.maximum(n, 1e-12)))
        return np.where(self.rows(n < 1e-12), self._ORIGIN, x)


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
