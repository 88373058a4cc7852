"""Metric taxonomy with witnesses, and the pointwise lemmas behind it.

The equational classes (Kahler, balanced, Gauduchon, SKT) are residual
tests on the defining equations; the existential classes (strongly
Gauduchon, Hermitian-symplectic) are finite linear solvability questions on
the invariant complex, decided by least squares with minimum-norm witnesses.

Hermitian-symplectic is taken in its standard reading: omega is the (1,1)
part of a closed real 2-form, i.e. there is a (2,0)-form alpha with
del alpha = 0 and del omega = -delbar alpha.  (A variant reading with alpha
of bidegree (0,2) is degree-inconsistent: delbar alpha would land in (0,3)
while del omega sits in (2,1).  ``strict=True`` reports that reading's
residual too, which simply measures del omega itself.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import hodge
from .algebra import Form, LieModel
from .cohomology import require_skt
from .errors import CrossCheckError, PreconditionError
from .linalg import min_norm_lstsq

__all__ = [
    "MetricClassification",
    "classify_metric",
    "SktNonvanishing",
    "skt_class_nonzero",
    "weak_positivity_topform",
    "AeppliHarmonicResiduals",
    "aeppli_harmonic_check",
    "power_exactness_witness",
]

TOL_AEPPLI = 1e-8  # relative residual of the Aeppli-harmonicity lemma and its preconditions


@dataclass
class MetricClassification:
    """Taxonomy verdicts with residuals and least-squares witnesses.

    Residuals are coefficient-norm ratios, so they are invariant under
    rescaling the metric; every predicate here is a metric-free statement
    about the fundamental form and its powers.
    """

    kahler: bool
    balanced: bool
    gauduchon: bool
    strongly_gauduchon: bool
    skt: bool
    hermitian_symplectic: bool
    residuals: dict[str, float] = field(default_factory=dict)
    witnesses: dict[str, Form] = field(default_factory=dict)

    def flags(self) -> dict[str, bool]:
        return {
            "kahler": self.kahler,
            "balanced": self.balanced,
            "gauduchon": self.gauduchon,
            "strongly_gauduchon": self.strongly_gauduchon,
            "skt": self.skt,
            "hermitian_symplectic": self.hermitian_symplectic,
        }


def classify_metric(g: hodge.HermitianMetric, strict: bool = False) -> MetricClassification:
    """Evaluate the six taxonomy predicates for a metric.

    kahler: d omega = 0; balanced: d omega^{n-1} = 0; gauduchon:
    del delbar omega^{n-1} = 0; strongly_gauduchon: del omega^{n-1} is
    delbar-exact; skt: del delbar omega = 0; hermitian_symplectic: see the
    module docstring.
    """
    model = g.model
    n = g.n
    omega = g.omega
    power = alg.wedge_power(omega, n - 1)
    omega_scale = omega.norm()
    power_scale = power.norm()

    del_omega = alg.del_form(model, omega)
    del_power, delbar_power = alg.d_form(model, power)

    residuals = {
        "kahler": hodge.kahler_residual(g),
        "balanced": math.hypot(del_power.norm(), delbar_power.norm()) / power_scale,
        "gauduchon": alg.del_form(model, delbar_power).norm() / power_scale,
        "skt": hodge.skt_residual(model, omega),
    }

    # strongly Gauduchon: del omega^{n-1} = delbar Gamma for a (n, n-2)-form Gamma
    sg_sol, sg_res = min_norm_lstsq(
        alg.delbar_matrix(model, n, n - 2), alg.to_vector(del_power, n)
    )
    residuals["strongly_gauduchon"] = sg_res / power_scale
    gamma = alg.from_vector(sg_sol, n, n, n - 2)

    # Hermitian-symplectic: (2,0)-form alpha, del alpha = 0, del omega = -delbar alpha
    hs_matrix = np.vstack([alg.delbar_matrix(model, 2, 0), alg.del_matrix(model, 2, 0)])
    hs_rhs = np.concatenate(
        [-alg.to_vector(del_omega, n), np.zeros(alg.space_dim(n, 3, 0), dtype=complex)]
    )
    hs_sol, hs_res = min_norm_lstsq(hs_matrix, hs_rhs)
    residuals["hermitian_symplectic"] = hs_res / omega_scale
    alpha = alg.from_vector(hs_sol, n, 2, 0)

    if strict:
        # the (0,2) reading leaves del omega entirely unmatched
        residuals["hermitian_symplectic_02_reading"] = del_omega.norm() / omega_scale

    out = MetricClassification(
        kahler=residuals["kahler"] <= hodge.TOL_EQ,
        balanced=residuals["balanced"] <= hodge.TOL_EQ,
        gauduchon=residuals["gauduchon"] <= hodge.TOL_EQ,
        strongly_gauduchon=residuals["strongly_gauduchon"] <= hodge.TOL_EQ,
        skt=residuals["skt"] <= hodge.TOL_EQ,
        hermitian_symplectic=residuals["hermitian_symplectic"] <= hodge.TOL_EQ,
        residuals=residuals,
        witnesses={"strongly_gauduchon": gamma, "hermitian_symplectic": alpha},
    )
    _check_implications(out)
    return out


def _check_implications(c: MetricClassification) -> None:
    ok = True
    if c.kahler:
        ok = all(c.flags().values())
    if c.balanced and not c.gauduchon:
        ok = False
    if c.strongly_gauduchon and not c.gauduchon:
        ok = False
    if c.hermitian_symplectic and not c.skt:
        ok = False
    if not ok:
        raise CrossCheckError(f"classification breaks the implication chain: {c.flags()}")


# ---------------------------------------------------------------------------
# non-vanishing of the Aeppli class of an SKT metric


@dataclass
class SktNonvanishing:
    """Certificate that omega is not del/delbar-exact.

    ``distance`` is the L2 distance from omega to Im del + Im delbar;
    ``alpha``/``beta`` are the symmetrized best-fit potentials (beta the
    conjugate of alpha), and ``positivity_terms[j]`` the integral of
    binom(n,2j) binom(2j,j) (delbar alpha)^j wedge (del beta)^j wedge
    omega^{n-2j}, each of which is weakly nonnegative.
    """

    distance: float
    relative_distance: float
    alpha: Form
    beta: Form
    positivity_terms: list[float]
    positivity_total: float


def skt_class_nonzero(g: hodge.HermitianMetric) -> SktNonvanishing:
    require_skt(g)
    model = g.model
    n = g.n
    omega_norm = hodge.l2_norm(g, g.omega)

    # least squares in the L2-isometric frame: columns of the Aeppli-exact
    # Im del + Im delbar inside (1,1), blocks of the unit frame complex, so
    # the true-scale potentials are the solution divided by S
    _, columns = hodge.closed_and_exact(g, "aeppli", 1, 1)
    sol, distance = min_norm_lstsq(columns, hodge.to_frame(g, g.omega))
    sol = sol / (hodge.complex_scale(g) or 1.0)  # S = 0 on a torus, where sol = 0
    if distance <= 1e-9 * omega_norm:
        raise CrossCheckError(
            "omega appears del/delbar-exact; impossible for an SKT metric, "
            "so this is a numerical failure"
        )

    n01 = alg.space_dim(n, 0, 1)
    u = hodge.from_frame(g, sol[:n01], 0, 1)
    v = hodge.from_frame(g, sol[n01:], 1, 0)
    alpha = 0.5 * (u + alg.conjugate(v))  # (0,1); symmetrized so beta = conjugate(alpha)
    beta = alg.conjugate(alpha)

    dbar_alpha = alg.delbar_form(model, alpha)  # (0,2)
    del_beta = alg.del_form(model, beta)  # (2,0), the conjugate of dbar_alpha
    terms: list[float] = []
    for j in range(n // 2 + 1):
        coeff = math.comb(n, 2 * j) * math.comb(2 * j, j)
        top = alg.wedge(
            alg.wedge(alg.wedge_power(dbar_alpha, j), alg.wedge_power(del_beta, j)),
            alg.wedge_power(g.omega, n - 2 * j),
        )
        terms.append(coeff * alg.integrate_top(top, n).real)
    return SktNonvanishing(
        distance=distance,
        relative_distance=distance / omega_norm,
        alpha=alpha,
        beta=beta,
        positivity_terms=terms,
        positivity_total=float(sum(terms)),
    )


def weak_positivity_topform(u: Form, n: int) -> str:
    """Sign of a real (n,n)-form against the positive volume element; zero only for 0."""
    if u.bidegree != (n, n):
        raise PreconditionError(f"expected an ({n},{n})-form, got {u.bidegree}")
    if not alg.is_real_form(u):
        raise PreconditionError("form is not real")
    value = alg.integrate_top(u, n)
    if value == 0:
        return "zero"
    return "positive" if value.real > 0 else "negative"


# ---------------------------------------------------------------------------
# Aeppli harmonicity of omega wedge phi


@dataclass
class AeppliHarmonicResiduals:
    """L2 norms of del*, delbar* and Delta_A applied to w = omega ^ phi, and |w|.

    The operators are those of the unit frame complex (``hodge.frame_model``),
    each term divided by S to its order: del* and delbar* by S, the terms
    of Delta_A by S^2 and S^4.
    """

    del_adjoint: float
    delbar_adjoint: float
    laplacian: float
    wedge_norm: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.del_adjoint, self.delbar_adjoint, self.laplacian)


def aeppli_harmonic_check(g: hodge.HermitianMetric, phi: Form) -> AeppliHarmonicResiduals:
    """Residuals of del*(omega ^ phi), delbar*(omega ^ phi), Delta_A(omega ^ phi).

    Defined for an SKT metric and a primitive, del- and delbar-closed
    (p,q)-form phi with p + q = n - 1; all three residuals then vanish.
    Preconditions are verified to the relative residual ``TOL_AEPPLI``, not
    assumed, and reported per condition.
    """
    model = g.model
    n = g.n
    p, q = phi.bidegree
    if p + q != n - 1:
        raise PreconditionError(f"phi must have total degree n-1={n-1}, got {p + q}")
    violations: dict[str, float] = {}
    for name, res, size in (
        ("metric_not_skt", hodge.skt_residual(model, g.omega), 1.0),
        ("phi_not_primitive",
         hodge.l2_norm(g, hodge.lambda_contraction(g, phi)), hodge.l2_norm(g, phi)),
        ("del_phi_nonzero", alg.del_form(model, phi).norm(), phi.norm()),
        ("delbar_phi_nonzero", alg.delbar_form(model, phi).norm(), phi.norm()),
    ):
        if res > TOL_AEPPLI * size:
            violations[name] = res
    if violations:
        raise PreconditionError("aeppli_harmonic_check preconditions failed", violations)

    w = hodge.lefschetz_matrix(g, p, q) @ hodge.to_frame(g, phi)  # omega ^ phi, (p+1, q+1)
    return AeppliHarmonicResiduals(
        del_adjoint=float(np.linalg.norm(hodge.del_matrix(g, p, q + 1).conj().T @ w)),
        delbar_adjoint=float(np.linalg.norm(hodge.delbar_matrix(g, p + 1, q).conj().T @ w)),
        laplacian=float(np.linalg.norm(hodge.laplacian_a(g, p + 1, q + 1) @ w)),
        wedge_norm=float(np.linalg.norm(w)),
    )


# ---------------------------------------------------------------------------
# power exactness


def power_exactness_witness(
    model: LieModel, a: Form, beta: Form, gamma: Form, power: int
) -> tuple[Form, Form]:
    """Potentials for a^power given potentials for a.

    If a is del- and delbar-closed and a = del beta + delbar gamma, then
    beta' = beta ^ a^{power-1} and gamma' = gamma ^ a^{power-1} satisfy
    a^power = del beta' + delbar gamma'.  Hypotheses and result are
    verified to the relative residual ``hodge.TOL_EQ``: the hypotheses
    against |a|, the result against the sizes of its three terms.
    """
    if power < 1:
        raise PreconditionError("power must be >= 1")
    violations: dict[str, float] = {}
    for name, res in (
        ("del_a", alg.del_form(model, a).norm()),
        ("delbar_a", alg.delbar_form(model, a).norm()),
        ("a_minus_del_beta_minus_delbar_gamma",
         (a - alg.del_form(model, beta) - alg.delbar_form(model, gamma)).norm()),
    ):
        if res > hodge.TOL_EQ * a.norm():
            violations[name] = res
    if violations:
        raise PreconditionError("power_exactness_witness preconditions failed", violations)

    rest = alg.wedge_power(a, power - 1)
    beta_out = alg.wedge(beta, rest)
    gamma_out = alg.wedge(gamma, rest)
    target = alg.wedge_power(a, power)
    del_out, delbar_out = alg.del_form(model, beta_out), alg.delbar_form(model, gamma_out)
    residual = (target - del_out - delbar_out).norm()
    if residual > hodge.TOL_EQ * (target.norm() + del_out.norm() + delbar_out.norm()):
        raise CrossCheckError(f"power witnesses failed verification (residual {residual:.3e})")
    return beta_out, gamma_out
