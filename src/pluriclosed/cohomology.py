"""Bott-Chern, Aeppli, Dolbeault and de Rham cohomology of a model.

A theory is a pair (closed, exact) of operators, each named by a key
(``alg.theory_operators``), and every space is computed twice from it: once
as the quotient rank columns - rank closed - rank exact of the operators of
the model's unit complex, read by their nonzero entries a family at a time
(``alg.unit_family``, metric-free), and once as the kernel dimension of
the frame Laplacian closed* closed + exact exact* (``hodge.laplacian``) for
a chosen metric, counted from its eigenvalues alone
(``linalg.kernel_dimension``).  Both are unit complexes under one rank cut,
so a model in a rotated coframe decides the ranks it does in its own.
The finite Hodge isomorphism makes the two dimensions equal exactly; a
mismatch is a numerical-threshold failure and raises CrossCheckError.
Neighbouring spaces share operators (deldelbar on (p,q) is Aeppli (p,q)'s
closed map and Bott-Chern (p+1,q+1)'s exact one), so the metric keeps one
table of ranks, a list per family of operators (``alg.family_places``):
each family is ranked whole, in one batch (``linalg.numeric_ranks``), the
first time a space reads one of its operators, so each operator is ranked
once per metric, and every space that reads a rank still checks it
against its own harmonic dimension.  A lone request ranks the families of
its own two operators.  A harmonic basis costs eigenvectors, so it is
built only when ``CohomologySpace.basis`` is first read, and it must have
as many columns as the space's dimension.

Dualities do most of the harmonic work.  A mirrored space takes its
harmonic dimension from another space with no Laplacian, and on demand its
harmonic basis too, mapped from that space's basis by a signed permutation,
so its columns stay orthonormal; its quotient rank is still computed on its
own and checked against it.

- Complex conjugation is a signed permutation P from Lambda^{p,q} to
  Lambda^{q,p}, the same in model and frame coordinates.  It maps the
  Bott-Chern harmonic space of bidegree (p,q) onto that of (q,p), so a
  Bott-Chern space with p > q is P conj(basis) of the (q,p) space.
- On a unimodular model the Hodge star (``hodge.star_columns``, a signed
  permutation in the unitary frame) maps the Bott-Chern harmonic
  (n-q,n-p) space onto the Aeppli (p,q) space (Schweitzer), and conj star
  maps the Dolbeault harmonic (n-p,n-q) space onto the (p,q) space (Serre
  duality).  So no Aeppli space needs a Laplacian, and no Dolbeault space
  with (p,q) > (n-p,n-q) does.  A non-unimodular model, where both
  dualities fail, computes Aeppli with p <= q directly, takes p > q by
  conjugation, and mirrors no Dolbeault space.
- Poincare duality: on a unimodular model b_k = b_{2n-k}, so a de Rham
  degree k > n takes its harmonic dimension from degree 2n - k.  A
  non-unimodular model mirrors no degree.

The Euler characteristic fixes one more space in each complex.  The
complex (Lambda^*, d) and each Dolbeault row (Lambda^{p,*}, delbar) are
finite, and their cochain dimensions have alternating sum 0, so
sum_k (-1)^k b_k = 0 and sum_q (-1)^q h^{p,q} = 0 on every model,
unimodular or not (Nomizu; Console-Fino).  An Euler space takes its
harmonic dimension from the rest of its complex, or row, with no Laplacian
(``_euler_partners``): de Rham degree n, and Dolbeault (p, n // 2) where no
duality mirrors it (2p <= n on a unimodular model, every row on a
non-unimodular one).  Its quotient rank is still computed and checked.  No
check is lost: the checks of the other spaces, read from the bottom degree
up and from the top down (through Poincare or Serre duality where it
applies), fix every rank of the complex in turn, so the Euler space's
quotient dimension is forced, and its Laplacian could only repeat checks
that have already passed.  It costs three things.  A lone request for an
Euler space computes its whole complex.  A refusal anywhere in a complex
also refuses its Euler space, with a message that names both.  And a read
of a Dolbeault Euler space's basis builds its Laplacian, checked against
the Euler dimension.

The de Rham pair is d on real forms of the underlying real Lie algebra
(``alg.real_model``; Chevalley-Eilenberg), assembled in float64, so both
routes run in real arithmetic: the quotient rank on the model's real d, and
the harmonic dimension on the eigenvalues of the real symmetric Delta_d of
the metric's orthonormal real frame, like every other direct space.  No de
Rham eigenvectors are formed, as none are used.

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
from .linalg import kernel_dimension, nullspace, numeric_ranks

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
    representatives; it is built on first read, cached on the metric and
    checked against ``dimension`` (CrossCheckError on a mismatch), and it is
    None for de Rham, whose classes are not manipulated further.

    Two spaces are equal when they belong to the same metric object and
    have the same theory and bidegree: ``cohomology_space`` builds a new
    space object on every call, from data cached on the metric.
    """

    theory: str
    p: int
    q: int | None
    metric: hodge.HermitianMetric
    dimension: int = field(compare=False)

    @property
    def basis(self) -> np.ndarray | None:
        return _basis(self.metric, self.theory, self.p, self.q)


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


def quotient_dimension(
    model: LieModel, theory: str, p: int, q: int | None, ranks: dict | None = None
) -> int:
    """Cohomology dimension by rank-nullity on the invariant complex.

    For the theory's pair (closed, exact) of the model's unit operators
    (``alg.theory_operators``) the kernel is counted as columns minus rank,
    from singular values only.  ``ranks`` maps a family of the unit complex
    (``alg.family_places``) to the ranks of its operators, in place order.
    A family that it lacks is ranked whole, in one batch
    (``alg.unit_family``, ``linalg.numeric_ranks``), and stored as a list of
    ints, so spaces that share a table rank each family once; a call without
    one starts from an empty table.  An operator outside every family maps
    to or from 0 and has rank 0.  A space off its theory's range
    (``_check_space``) raises ValueError, before any rank is computed.
    """
    n = model.n
    _check_space(n, theory, p, q)
    table = {} if ranks is None else ranks
    dimension = alg.space_dim(n, p, q) if q is not None else alg.space_dim(2 * n, p, 0)
    places = alg.family_places(n)
    for key in alg.theory_operators(theory, p, q):
        if key in places:
            family, place = places[key]
            if family not in table:
                table[family] = numeric_ranks(alg.unit_family(model, family))
            dimension -= table[family][place]
    return dimension


def _check_space(n: int, theory: str, p: int, q: int | None) -> None:
    """ValueError unless (theory, p, q) is a space: de Rham 0 <= p <= 2n, q None; else 0 <= p, q <= n."""
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}")
    if theory == "derham":
        valid = q is None and 0 <= p <= 2 * n
    else:
        valid = q is not None and 0 <= p <= n and 0 <= q <= n
    if not valid:
        raise ValueError(f"no {theory} space ({p},{q}) on a model of dimension {n}")


def cohomology_space(
    g: hodge.HermitianMetric, theory: str, p: int, q: int | None = None
) -> CohomologySpace:
    """Compute one space via both routes and insist that they agree; ValueError off its theory's range."""
    return CohomologySpace(theory=theory, p=p, q=q, metric=g, dimension=_dimension(g, theory, p, q))


def _mirror(g: hodge.HermitianMetric, theory: str, p: int, q: int | None):
    """(source space, star, conjugate) of a space mirrored from another, None for a direct one."""
    n, unimodular = g.n, alg.is_unimodular(g.model)
    if theory == "derham":  # Poincare duality: b_k = b_{2n-k} on a unimodular model
        return (("derham", 2 * n - p, None), False, False) if p > n and unimodular else None
    if theory == "aeppli" and unimodular:  # star maps the Bott-Chern (n-q,n-p) harmonic space here
        return ("bc", n - q, n - p), True, False
    if theory == "dolbeault" and (p, q) > (n - p, n - q) and unimodular:  # Serre duality: conj star
        return (theory, n - p, n - q), True, True
    if theory in ("bc", "aeppli") and p > q:  # conjugation maps the (q,p) harmonic space here
        return (theory, q, p), False, True
    return None


def _euler_partners(g: hodge.HermitianMetric, theory: str, p: int, q: int | None):
    """(sign, space) pairs whose signed dimensions sum to an Euler space's, None for any other space.

    The Euler spaces are de Rham degree n and Dolbeault (p, n // 2): their
    complex, or Dolbeault row, has Euler characteristic 0.  ``_mirror`` is
    asked first, so a mirrored space is never an Euler space.
    """
    n = g.n
    if theory == "derham" and p == n:
        return [((-1) ** (k - n + 1), ("derham", k, None)) for k in range(2 * n + 1) if k != n]
    if theory == "dolbeault" and q == n // 2:
        return [((-1) ** (j - q + 1), (theory, p, j)) for j in range(n + 1) if j != q]
    return None


def _dimension(g: hodge.HermitianMetric, theory: str, p: int, q: int | None) -> int:
    """Dimension of one space by both routes, cached on the metric.

    Its quotient route reads and fills the metric's table of family ranks
    (``"ranks"``), shared by every space of the metric.  The metric caches
    the dimension, not the space object, which points back at the
    metric: a cycle would keep every metric alive until a full
    garbage-collection pass.
    """
    key = ("cohomology", theory, p, q)
    if key not in g._cache:
        qdim = quotient_dimension(g.model, theory, p, q, g._cache.setdefault("ranks", {}))
        mirror = _mirror(g, theory, p, q)
        if mirror is not None:
            hdim = _dimension(g, *mirror[0])
        elif partners := _euler_partners(g, theory, p, q):
            hdim = 0
            for sign, partner in partners:
                try:
                    hdim += sign * _dimension(g, *partner)
                except CrossCheckError as exc:
                    what = "complex" if q is None else "row"
                    raise CrossCheckError(
                        f"{theory} ({p},{q}): dimension fixed by the Euler characteristic of its {what}, "
                        "and {} ({},{}) was refused: {}".format(*partner, exc)
                    ) from exc
        else:
            hdim = kernel_dimension(hodge.laplacian(g, theory, p, q))
        if qdim != hdim:
            raise CrossCheckError(f"{theory} ({p},{q}): quotient rank {qdim} != harmonic dimension {hdim}")
        g._cache[key] = qdim
    return g._cache[key]


def _basis(g: hodge.HermitianMetric, theory: str, p: int, q: int | None) -> np.ndarray | None:
    """Harmonic basis of one space, None for de Rham: built on first read, cached on the metric."""
    key = ("basis", theory, p, q)
    if theory != "derham" and key not in g._cache:
        mirror = _mirror(g, theory, p, q)
        if mirror is None:
            basis = hodge.harmonic_basis(hodge.laplacian(g, theory, p, q))
        else:
            source, star, conj = mirror
            basis = _basis(g, *source)
            if star:
                basis = hodge.star_columns(g, *source[1:], basis)
            if conj:
                basis = alg._conjugate_rows(basis.T, g.n, q, p).T
        dim = _dimension(g, theory, p, q)
        if basis.shape[1] != dim:  # a basis built late loses no check
            raise CrossCheckError(f"{theory} ({p},{q}): {basis.shape[1]} basis columns != dimension {dim}")
        basis.setflags(write=False)
        g._cache[key] = basis
    return g._cache.get(key)


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
    # its norm is |(omega_{n-1})_h| <= |omega_{n-1}|, brought to 1 for the rank cut
    power = hodge.to_frame(g, hodge.omega_power(g, n - 1))
    functional = power.conj() @ space.basis
    if np.linalg.norm(functional) <= hodge.TOL_EQ * np.linalg.norm(power):
        raise CrossCheckError(
            "wedge functional vanished on all of H^{n-1,n-1}_BC; "
            "an SKT metric must cut out a hyperplane"
        )
    basis = nullspace(functional.reshape(1, -1) / np.linalg.norm(functional))
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
