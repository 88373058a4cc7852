"""Bott-Chern, Aeppli, Dolbeault and de Rham cohomology of a model.

A theory is a pair (closed, exact) of operators (``alg.closed_and_exact``),
and every space is computed twice from it: once as the quotient rank
columns - rank closed - rank exact of the model matrices (metric-free), and
once as the kernel dimension of the frame Laplacian closed* closed +
exact exact* (``hodge.laplacian``) for a chosen metric.  The finite Hodge
isomorphism makes the two dimensions equal exactly; a mismatch is a
numerical-threshold failure and raises CrossCheckError.

Complex conjugation does half of the harmonic work.  It is a signed
permutation P from Lambda^{p,q} to Lambda^{q,p}, the same in model and
frame coordinates, and it maps the Bott-Chern and Aeppli harmonic spaces of
bidegree (p,q) onto those of (q,p).  So a Bott-Chern or Aeppli space with
p > q takes its harmonic basis from the (q,p) space, as P conj(basis), with
no Laplacian; its quotient rank is still computed on its own and checked
against that basis.  Dolbeault is not mirrored: conjugation maps it to
del-cohomology.  d is real, so Delta_d is real symmetric in a basis of real
forms, and the de Rham harmonic dimension is counted from the eigenvalues
of that real matrix (``hodge.derham_harmonic_dimension``), with the cut of
the complex one; no de Rham eigenvectors are formed, as none are used.

On top of the spaces this module builds the duality pairing
H^{n-1,n-1}_BC x H^{1,1}_A -> C by integration, the primitive hyperplane cut
out by an SKT metric, and the induced Lefschetz-type splitting of
H^{n-1,n-1}_BC with its lambda coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import hodge
from .algebra import Form, LieModel
from .errors import CrossCheckError, PreconditionError
from .linalg import nullspace, numeric_rank

__all__ = [
    "THEORIES",
    "CohomologySpace",
    "CohomologyClass",
    "quotient_dimension",
    "cohomology_space",
    "class_of",
    "harmonic_representative",
    "is_real_class",
    "integrate_pairing",
    "duality_pairing",
    "PrimitiveHyperplane",
    "primitive_hyperplane",
    "require_skt",
    "harmonic_part_of_omega",
    "harmonic_part_of_omega_power",
    "lefschetz_decompose_class",
    "lambda_sign_partition",
]

THEORIES = ("bc", "aeppli", "dolbeault", "derham")


@dataclass(frozen=True)
class CohomologySpace:
    """One cohomology space, computed by both routes, which agree.

    ``q`` is None for de Rham, where ``p`` is the total degree.  ``basis``
    is a matrix of orthonormal columns, the frame coordinates
    (``hodge.to_frame``, L2-isometric) of L2-orthonormal harmonic
    representatives; it is None for de Rham, whose classes are not
    manipulated further.

    Two spaces are equal when they belong to the same metric object and
    have the same theory and bidegree: ``cohomology_space`` builds a new
    space object on every call, from data cached on the metric.
    """

    theory: str
    p: int
    q: int | None
    metric: hodge.HermitianMetric
    dimension: int = field(compare=False)
    basis: np.ndarray | None = field(compare=False)


@dataclass(eq=False)
class CohomologyClass:
    space: CohomologySpace
    coords: np.ndarray
    representative: Form

    def scaled(self, scalar: complex) -> "CohomologyClass":
        return CohomologyClass(self.space, scalar * self.coords, scalar * self.representative)

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if other.space != self.space:
            raise ValueError("classes live in different spaces")
        return CohomologyClass(
            self.space, self.coords + other.coords, self.representative + other.representative
        )


def quotient_dimension(model: LieModel, theory: str, p: int, q: int | None) -> int:
    """Cohomology dimension by rank-nullity on the invariant complex.

    For the theory's pair (closed, exact) of model matrices
    (``alg.closed_and_exact``) the kernel is counted as columns minus rank,
    so a space costs two calls of ``linalg.numeric_rank`` (singular values
    only, block by block) and no singular vectors.
    """
    closed, exact = alg.closed_and_exact(model, theory, p, q)
    return closed.shape[1] - numeric_rank(closed) - numeric_rank(exact)


def cohomology_space(
    g: hodge.HermitianMetric, theory: str, p: int, q: int | None = None
) -> CohomologySpace:
    """Compute one space via both routes and insist that they agree."""
    dim, basis = _space_data(g, theory, p, q)
    return CohomologySpace(theory=theory, p=p, q=q, metric=g, dimension=dim, basis=basis)


def _space_data(g: hodge.HermitianMetric, theory: str, p: int, q: int | None):
    """Dimension and harmonic basis of one space, cached on the metric.

    The metric caches these, not the space object, which points back at the
    metric: a cycle would keep every metric alive until a full
    garbage-collection pass.
    """
    key = ("cohomology", theory, p, q)
    hit = g._cache.get(key)
    if hit is None:
        qdim = quotient_dimension(g.model, theory, p, q)
        if theory == "derham":
            basis, hdim = None, hodge.derham_harmonic_dimension(g, p)
        elif theory in ("bc", "aeppli") and p > q:
            # conjugation maps the (q,p) harmonic space onto this one
            _, mirror = _space_data(g, theory, q, p)
            basis = alg._conjugate_rows(mirror.T, g.n, q, p).T
            hdim = basis.shape[1]
        else:
            basis = hodge.harmonic_basis(g, hodge.laplacian(g, theory, p, q))
            hdim = basis.shape[1]
        if qdim != hdim:
            raise CrossCheckError(
                f"{theory} ({p},{q}): quotient rank {qdim} != harmonic dimension {hdim}"
            )
        if basis is not None:
            basis.setflags(write=False)
        hit = g._cache[key] = (qdim, basis)
    return hit


def class_of(space: CohomologySpace, u: Form) -> CohomologyClass:
    """Class of a form, after checking that the theory's ``closed`` operator kills it."""
    if space.theory not in ("bc", "aeppli"):
        raise ValueError("classes are only built for the bc and aeppli theories")
    g = space.metric
    closed, _ = alg.closed_and_exact(g.model, space.theory, u.p, u.q)
    bad = float(np.linalg.norm(closed @ u.vec))
    if bad > hodge.TOL_EQ * u.norm():
        what = "del- and delbar-closed" if space.theory == "bc" else "del delbar-closed"
        raise PreconditionError(f"form is not {what}", {"residual": bad})
    coords = space.basis.conj().T @ hodge.to_frame(g, u)  # L2 products <u, b_j>
    return CohomologyClass(space=space, coords=coords, representative=u)


def harmonic_representative(cls: CohomologyClass) -> Form:
    space = cls.space
    return hodge.from_frame(space.metric, space.basis @ cls.coords, space.p, space.q)


def is_real_class(cls: CohomologyClass) -> bool:
    """Reality of the harmonic representative, in L2 against the stored one."""
    if cls.space.p != cls.space.q:
        return False
    g, rep = cls.space.metric, harmonic_representative(cls)
    size = hodge.l2_norm(g, cls.representative)
    return hodge.l2_norm(g, alg.conjugate(rep) - rep) <= hodge.TOL_EQ * size


# ---------------------------------------------------------------------------
# duality pairing


def integrate_pairing(model: LieModel, u: Form, v: Form) -> complex:
    """Integral of u wedge v against the normalized volume element."""
    return alg.integrate_top(alg.wedge(u, v), model.n)


def duality_pairing(c_bc: CohomologyClass, c_a: CohomologyClass) -> complex:
    """Serre-type pairing of a BC (n-1,n-1)-class with an Aeppli (1,1)-class.

    Computed on the stored representatives; representative independence
    holds exactly on unimodular models, which is why non-unimodular ones are
    rejected.
    """
    g = c_bc.space.metric
    n = g.n
    if (c_bc.space.theory, c_bc.space.p, c_bc.space.q) != ("bc", n - 1, n - 1):
        raise PreconditionError("first argument must be a BC class of bidegree (n-1,n-1)")
    if (c_a.space.theory, c_a.space.p, c_a.space.q) != ("aeppli", 1, 1):
        raise PreconditionError("second argument must be an Aeppli class of bidegree (1,1)")
    if not alg.is_unimodular(g.model):
        raise PreconditionError("pairing is representative-independent only on unimodular models")
    return integrate_pairing(g.model, c_bc.representative, c_a.representative)


# ---------------------------------------------------------------------------
# primitive hyperplane and the Lefschetz-type splitting


def require_skt(g: hodge.HermitianMetric) -> None:
    residual = hodge.skt_residual(g.model, g.omega)
    if residual > hodge.TOL_EQ:
        raise PreconditionError("metric is not SKT", {"del_delbar_omega": residual})


@dataclass(eq=False)
class PrimitiveHyperplane:
    """Kernel of the top-degree wedge functional [G] -> integral of omega wedge G.

    ``functional`` holds the values of that map on the harmonic basis of
    H^{n-1,n-1}_BC; ``basis`` spans its kernel in harmonic coordinates
    (orthonormal columns), of codimension exactly one.
    """

    space: CohomologySpace
    functional: np.ndarray
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def classes(self) -> list[CohomologyClass]:
        space = self.space
        reps = space.basis @ self.basis  # frame columns of the harmonic representatives
        return [
            CohomologyClass(
                space,
                self.basis[:, j].copy(),
                hodge.from_frame(space.metric, reps[:, j], space.p, space.q),
            )
            for j in range(self.basis.shape[1])
        ]


def primitive_hyperplane(g: hodge.HermitianMetric) -> PrimitiveHyperplane:
    """Hyperplane of omega-primitive BC (n-1,n-1)-classes of an SKT metric."""
    require_skt(g)
    n = g.n
    space = cohomology_space(g, "bc", n - 1, n - 1)
    # integral of b wedge omega = <b, omega_{n-1}>_L2, since star omega_{n-1} = omega;
    # its norm is |(omega_{n-1})_h| <= |omega_{n-1}|
    power = hodge.to_frame(g, hodge.omega_power(g, n - 1))
    functional = power.conj() @ space.basis
    if np.linalg.norm(functional) <= hodge.TOL_EQ * np.linalg.norm(power):
        raise CrossCheckError(
            "wedge functional vanished on all of H^{n-1,n-1}_BC; "
            "an SKT metric must cut out a hyperplane"
        )
    basis = nullspace(functional.reshape(1, -1))
    if basis.shape[1] != space.dimension - 1:
        raise CrossCheckError("primitive subspace is not of codimension one")
    return PrimitiveHyperplane(space=space, functional=functional, basis=basis)


def harmonic_part_of_omega(g: hodge.HermitianMetric) -> Form:
    """Aeppli-harmonic component of omega."""
    return _harmonic_part(cohomology_space(g, "aeppli", 1, 1), g.omega)


def harmonic_part_of_omega_power(g: hodge.HermitianMetric) -> Form:
    """Bott-Chern-harmonic component of omega_{n-1} = omega^{n-1}/(n-1)!."""
    n = g.n
    return _harmonic_part(cohomology_space(g, "bc", n - 1, n - 1), hodge.omega_power(g, n - 1))


def _harmonic_part(space: CohomologySpace, u: Form) -> Form:
    """Orthogonal projection of u onto the harmonic representatives of a space."""
    g, basis = space.metric, space.basis
    return hodge.from_frame(g, basis @ (basis.conj().T @ hodge.to_frame(g, u)), u.p, u.q)


def lefschetz_decompose_class(
    g: hodge.HermitianMetric, cls: CohomologyClass
) -> tuple[CohomologyClass, complex]:
    """Split a BC (n-1,n-1)-class into primitive part plus lambda times the
    class of the harmonic part of omega_{n-1}.

    lambda is computed twice: from the closed formula
    lambda = (integral of rep wedge omega) / |omega_h|^2 and as the orthogonal
    projection coefficient of the harmonic representative onto the line of
    (omega_{n-1})_h.  The two routes must agree to 1e-8 of |rep| / |(omega_{n-1})_h|
    in L2, the largest lambda that a representative of its size can give.
    """
    require_skt(g)
    if not alg.is_unimodular(g.model):
        raise PreconditionError("decomposition needs a unimodular model")
    n = g.n
    space = cohomology_space(g, "bc", n - 1, n - 1)
    if cls.space != space:
        raise PreconditionError("class does not live in H^{n-1,n-1}_BC for this metric")

    omega_h = harmonic_part_of_omega(g)
    denominator = hodge.inner(g, omega_h, omega_h).real
    if denominator <= 1e-14 * hodge.inner(g, g.omega, g.omega).real:
        raise CrossCheckError(
            "harmonic part of omega is numerically degenerate; "
            "it cannot vanish for an SKT metric"
        )
    lam_formula = integrate_pairing(g.model, cls.representative, g.omega) / denominator

    power_h = harmonic_part_of_omega_power(g)
    power_sq = hodge.inner(g, power_h, power_h).real
    if power_sq <= 1e-14 * hodge.inner(g, g.omega, g.omega).real:
        raise CrossCheckError("harmonic part of omega_{n-1} is numerically degenerate")
    lam_projection = hodge.inner(g, harmonic_representative(cls), power_h) / power_sq

    lam_scale = hodge.l2_norm(g, cls.representative) / np.sqrt(power_sq)
    if abs(lam_formula - lam_projection) > 1e-8 * lam_scale:
        raise CrossCheckError(
            f"lambda routes disagree: formula {lam_formula} vs projection {lam_projection}"
        )

    power_cls = class_of(space, power_h)
    primitive = CohomologyClass(
        space=space,
        coords=cls.coords - lam_formula * power_cls.coords,
        representative=cls.representative - lam_formula * power_h,
    )
    return primitive, lam_formula


def lambda_sign_partition(g: hodge.HermitianMetric, cls: CohomologyClass) -> str:
    """'positive', 'primitive' or 'negative' side of the primitive hyperplane.

    Only defined for real classes; lambda is real there.  The class is
    primitive when its component lambda (omega_{n-1})_h is below
    ``hodge.TOL_EQ`` times its representative, both measured in L2.
    """
    if not is_real_class(cls):
        raise PreconditionError("sign partition is defined on real classes only")
    _, lam = lefschetz_decompose_class(g, cls)
    component = abs(lam.real) * hodge.l2_norm(g, harmonic_part_of_omega_power(g))
    if component <= hodge.TOL_EQ * hodge.l2_norm(g, cls.representative):
        return "primitive"
    return "positive" if lam.real > 0 else "negative"
