"""Cone feasibility: SKT membership of Aeppli (1,1)-classes and pairing probes.

An Aeppli (1,1)-class is SKT-feasible when some representative is a
positive definite real (1,1)-form with del delbar = 0.  On the invariant
complex every real representative of a class is

    gamma(u) = alpha_0 + del u + conjugate(del u),      u a (0,1)-form,

with alpha_0 the real harmonic representative, and del delbar gamma(u) = 0
holds automatically, so feasibility is the semidefinite question of making
the Hermitian coefficient matrix of gamma(u) positive definite.  The solver
maximizes the (concave) minimum eigenvalue by projected subgradient ascent
with restarts and a 1/k step schedule.

Verdict discipline: YES needs a checkable witness, NO needs a separating
pairing with a stored closed weakly-positive (n-1,n-1)-form, everything
else is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from . import algebra as alg
from . import hodge
from .algebra import Form, LieModel
from .cohomology import (
    CohomologyClass,
    class_of,
    harmonic_representative,
    integrate_pairing,
    is_real_class,
    require_skt,
)
from .errors import CrossCheckError, PreconditionError
from .linalg import nullspace

__all__ = [
    "ConeMembershipResult",
    "search_directions",
    "skt_cone_feasibility",
    "ClosedPositiveProbe",
    "closed_positive_probes",
    "weak_positivity_matrix",
    "SktProbe",
    "skt_probe_from_metric",
    "CopsefPairingReport",
    "copsef_pairing_test",
]

TOL_PD = 1e-7  # absolute threshold on unit-normalized class representatives
MAX_ITERATIONS = 10_000  # subgradient steps, shared by all restarts
RESTARTS = 4
TOL_PROBE = 1e-9  # closedness and positivity threshold of a stored probe


@dataclass
class ConeMembershipResult:
    verdict: str  # feasible_with_witness | infeasible_certified | inconclusive
    witness: Form | None
    witness_matrix: np.ndarray | None
    best_min_eigenvalue: float
    iterations: int
    certificate: dict | None = None


def _real_11_matrix(u: Form, n: int) -> np.ndarray:
    m = hodge.matrix_of_11_form(u, n)
    return 0.5 * (m + m.conj().T)


def search_directions(model: LieModel) -> np.ndarray:
    """The 2n Hermitian matrices H_j with 2 Re(del u) = sum_j theta_j H_j.

    For the (0,1)-form u = sum_k u_k phibar^k with u_k = theta_{2k} +
    i theta_{2k+1}, del u enters as u_k B_k + h.c., B_k the matrix of
    del phibar^k (column k of del on Lambda^{0,1}); so H_{2k} = B_k + B_k^*
    and H_{2k+1} = i (B_k - B_k^*).
    """
    n = model.n
    b = (alg.del_matrix(model, 0, 1) / 1j).T.reshape(n, n, n)
    b_star = b.conj().transpose(0, 2, 1)
    return np.stack([b + b_star, 1j * (b - b_star)], axis=1).reshape(2 * n, n, n)


def skt_cone_feasibility(cls: CohomologyClass, seed: int = 0) -> ConeMembershipResult:
    """Decide SKT membership of a real Aeppli (1,1)-class.

    Searches representatives alpha_0 + 2 Re(del u) for the best minimum
    eigenvalue; certifies infeasibility only through a negative pairing with
    a stored closed weakly-positive probe.
    """
    space = cls.space
    g = space.metric
    model = g.model
    n = g.n
    if (space.theory, space.p, space.q) != ("aeppli", 1, 1):
        raise PreconditionError("class must be an Aeppli (1,1)-class")
    if not is_real_class(cls):
        raise PreconditionError("class must be real")

    rep = harmonic_representative(cls)
    alpha0 = 0.5 * (rep + alg.conjugate(rep))  # de-noise the imaginary part
    m0 = _real_11_matrix(alpha0, n)
    class_norm = hodge.l2_norm(g, alpha0)
    scale = class_norm if class_norm > 0 else 1.0

    directions = search_directions(model)

    def hermitian_at(theta: np.ndarray) -> np.ndarray:
        return m0 + np.tensordot(theta, directions, axes=1)

    rng = np.random.default_rng(seed)
    dim = 2 * n
    cap = MAX_ITERATIONS // RESTARTS
    best_value = -math.inf
    best_theta = np.zeros(dim)
    used = 0
    for restart in range(RESTARTS):
        theta = (
            np.zeros(dim)
            if restart == 0
            else rng.normal(scale=0.1 * scale, size=dim)
        )
        stale = 0
        for it in range(1, cap + 1):
            used += 1
            eigvals, eigvecs = np.linalg.eigh(hermitian_at(theta))
            if eigvals[0] > best_value:
                best_value = float(eigvals[0])
                best_theta = theta.copy()
                stale = 0
            else:
                stale += 1
            if stale > 200:
                break
            x = eigvecs[:, 0]
            grad = np.einsum("i,kij,j->k", x.conj(), directions, x).real
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-14:
                break
            theta = theta + (scale / it) * grad / gnorm

    best_matrix = hermitian_at(best_theta)
    best_value = float(np.linalg.eigvalsh(best_matrix)[0])

    if best_value / scale > TOL_PD:
        witness = hodge.form_of_hermitian_matrix(best_matrix)
        # the witness must still represent cls and be del delbar-closed
        check = class_of(space, witness)
        drift = float(np.linalg.norm(check.coords - cls.coords))
        if drift > 1e-8 * float(np.linalg.norm(cls.coords)):
            raise CrossCheckError(f"witness left its Aeppli class (drift {drift:.3e})")
        return ConeMembershipResult(
            verdict="feasible_with_witness",
            witness=witness,
            witness_matrix=best_matrix,
            best_min_eigenvalue=best_value,
            iterations=used,
        )

    for probe in closed_positive_probes(model, seed=seed):
        value = integrate_pairing(model, probe.form, alpha0).real
        probe_scale = max(probe.form.norm(), 1e-30) * scale
        if value < -TOL_PD * probe_scale:
            return ConeMembershipResult(
                verdict="infeasible_certified",
                witness=None,
                witness_matrix=None,
                best_min_eigenvalue=best_value,
                iterations=used,
                certificate={"probe": probe.label, "pairing": value},
            )
    return ConeMembershipResult(
        verdict="inconclusive",
        witness=None,
        witness_matrix=None,
        best_min_eigenvalue=best_value,
        iterations=used,
    )


# ---------------------------------------------------------------------------
# closed weakly-positive (n-1,n-1) probes


def weak_positivity_matrix(t: Form, n: int) -> np.ndarray:
    """Hermitian matrix whose PSD-ness is weak positivity of a real (n-1,n-1)-form.

    Entry (k, j) is the integral of t wedge i phi^j wedge phibar^k, so for a
    (1,0)-form xi with coefficients a the volume coefficient of
    t wedge i xi wedge conj(xi) equals a* M a.
    """
    if t.bidegree != (n - 1, n - 1):
        raise ValueError("expected an (n-1,n-1)-form")
    # the one row of t wedge . : Lambda^{1,1} -> Lambda^{n,n}, columns phi^j ^ phibar^k
    top = alg.wedge_matrix(n, t, 1, 1)[0]
    return (1j / (1j) ** (n * n % 4)) * top.reshape(n, n).T


@dataclass
class ClosedPositiveProbe:
    """d-closed weakly semi-positive real (n-1,n-1)-form with its certificates."""

    form: Form
    label: str
    closedness_residual: float
    min_positivity_eigenvalue: float


def _try_probe(model: LieModel, t: Form, label: str) -> ClosedPositiveProbe | None:
    n = model.n
    if t.norm() <= TOL_PROBE:
        return None
    d_res = max(f.norm() for f in alg.d_form(model, t)) / t.norm()
    if d_res > TOL_PROBE:
        return None
    if not alg.is_real_form(t, tol=1e-9):
        return None
    m = weak_positivity_matrix(t, n)
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    if min_eig < -TOL_PROBE * max(1.0, float(np.max(np.abs(m)))):
        return None
    return ClosedPositiveProbe(
        form=t, label=label, closedness_residual=d_res, min_positivity_eigenvalue=min_eig
    )


def closed_positive_probes(
    model: LieModel, count: int = 8, seed: int = 0
) -> list[ClosedPositiveProbe]:
    """Stored co-positive probe family for separation certificates.

    Candidates: the (n-1)-power of the identity metric, the coordinate
    monomials i^{(n-1)^2} phi^K wedge phibar^K over |K| = n-1, and random
    real d-closed forms that happen to have a PSD positivity matrix.  Only
    candidates passing the closedness and positivity certificates are kept.
    """
    n = model.n
    probes: list[ClosedPositiveProbe] = []

    reference = hodge.identity_metric(model)
    p = _try_probe(model, hodge.omega_power(reference, n - 1), "identity-power")
    if p:
        probes.append(p)

    phase = (1j) ** ((n - 1) ** 2 % 4)
    for subset in combinations(range(1, n + 1), n - 1):
        t = alg.basis_form(n, subset, subset, phase)
        p = _try_probe(model, t, f"monomial-{''.join(map(str, subset))}")
        if p:
            probes.append(p)

    del_, delbar = partial(alg.del_matrix, model), partial(alg.delbar_matrix, model)
    closed = nullspace(alg.closed_and_exact("bc", n, n - 1, n - 1, del_, delbar)[0])
    if closed.shape[1]:
        rng = np.random.default_rng(seed)
        for idx in range(count):
            z = rng.standard_normal(closed.shape[1]) + 1j * rng.standard_normal(closed.shape[1])
            t = alg.from_vector(closed @ z, n, n - 1, n - 1)
            t = 0.5 * (t + alg.conjugate(t))
            p = _try_probe(model, t, f"sampled-{idx}")
            if p:
                probes.append(p)
    return probes


# ---------------------------------------------------------------------------
# pairing tests against SKT probes


@dataclass
class SktProbe:
    """An SKT class given through its witness metric form."""

    witness: Form
    label: str = ""


def skt_probe_from_metric(g: hodge.HermitianMetric, label: str = "") -> SktProbe:
    require_skt(g)
    return SktProbe(witness=g.omega, label=label or "metric")


@dataclass
class CopsefPairingReport:
    verdict: str  # consistent | violated
    pairings: list[tuple[str, float]]
    violations: list[tuple[str, float]]
    warning: str | None
    note: str = (
        "consistency against finitely many probes is necessary, not sufficient; "
        "this is not a membership certificate"
    )


def copsef_pairing_test(cls: CohomologyClass, probes: list[SktProbe]) -> CopsefPairingReport:
    """Pair a real BC (n-1,n-1)-class against verified SKT probes.

    Any pairing below -hodge.TOL_EQ |representative| |witness| excludes the
    class from the cone of closed weakly-positive forms; a fully consistent
    report is explicitly not a membership proof.
    """
    space = cls.space
    g = space.metric
    model = g.model
    n = g.n
    if (space.theory, space.p, space.q) != ("bc", n - 1, n - 1):
        raise PreconditionError("class must be a BC class of bidegree (n-1,n-1)")
    if not is_real_class(cls):
        raise PreconditionError("class must be real")

    pairings: list[tuple[str, float]] = []
    violations: list[tuple[str, float]] = []
    for idx, probe in enumerate(probes):
        if probe.witness is None:
            raise PreconditionError(f"probe {idx} carries no witness")
        if probe.witness.bidegree != (1, 1):
            raise PreconditionError(f"probe {idx} witness is not a (1,1)-form")
        skt_res = hodge.skt_residual(model, probe.witness)
        if skt_res > hodge.TOL_EQ:
            raise PreconditionError(
                f"probe {idx} witness is not SKT", {"del_delbar": skt_res}
            )
        m = _real_11_matrix(probe.witness, n)
        if float(np.linalg.eigvalsh(m)[0]) <= 0:
            raise PreconditionError(f"probe {idx} witness is not positive definite")
        value = integrate_pairing(model, cls.representative, probe.witness).real
        label = probe.label or f"probe-{idx}"
        pairings.append((label, value))
        if value < -hodge.TOL_EQ * cls.representative.norm() * probe.witness.norm():
            violations.append((label, value))
    warning = "empty probe list: nothing was tested" if not probes else None
    return CopsefPairingReport(
        verdict="violated" if violations else "consistent",
        pairings=pairings,
        violations=violations,
        warning=warning,
    )
