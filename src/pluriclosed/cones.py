"""Cone feasibility: SKT membership of Aeppli (1,1)-classes and pairing probes.

An Aeppli (1,1)-class is SKT-feasible when some representative is a
positive definite real (1,1)-form with del delbar = 0.  On the invariant
complex every real representative of a class is

    gamma(u) = alpha_0 + del u + conjugate(del u),      u a (0,1)-form,

with alpha_0 the real harmonic representative, and del delbar gamma(u) = 0
holds automatically.  In coefficient matrices gamma(u) is M_0 + sum_k
theta_k D_k (``search_directions``), so feasibility is the sign of the
small semidefinite program (Overton, SIAM J. Optim. 2, 1992)

    sup over theta of lambda_min(M_0 + sum_k theta_k D_k).

``maximize_min_eigenvalue`` solves it by Newton's method on the log-det
barrier of max t s.t. S = M_0 + sum_k theta_k D_k - t I > 0.  On the
central path Z = mu S^-1 has tr Z = 1 and <Z, D_k> = 0, and the duality gap
<Z, M_0> - t is n mu.  The path exists only when such a Z can be positive
definite; otherwise the span of the D_k holds a nonzero semidefinite
matrix P, the barrier has no maximizer, and the optimum may be approached
only as the coefficient of P grows without bound.  That P is found first, by the same solver on the traceless
part of the span, and the problem is restricted to the kernel of P (facial
reduction, Borwein-Wolkowicz 1981) before the barrier runs.  A positive
definite P makes the optimum unbounded.

Verdict discipline: YES needs a checkable witness, NO needs a separating
pairing with a closed weakly-positive (n-1,n-1)-form, everything else is
inconclusive.  The separating form is the barrier's own dual Z, read as the
(n-1,n-1)-form T whose positivity matrix is n Z (Harvey-Lawson, Invent.
Math. 74, 1983): <Z, M_0> <= 0 bounds lambda_min of every representative
by 0.  T passes the same closedness and positivity checks as the stored
probes, which stay as an independent second check: a stored probe pairing
negatively with a class that has a witness is a contradiction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

__all__ = [
    "ConeMembershipResult",
    "search_directions",
    "EigenvalueOptimum",
    "maximize_min_eigenvalue",
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
TOL_PROBE = 1e-9  # closedness and positivity threshold of a stored probe
GAP = 1e-9  # the barrier stops at duality gap GAP * scale
MAX_NEWTON_STEPS = 200  # per barrier; a central path takes about 50


@dataclass
class ConeMembershipResult:
    verdict: str  # feasible_with_witness | infeasible_certified | inconclusive
    witness: Form | None
    witness_matrix: np.ndarray | None
    best_min_eigenvalue: float
    iterations: int  # Newton steps
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


# ---------------------------------------------------------------------------
# sup over theta of lambda_min(M_0 + sum_k theta_k D_k)


@dataclass
class EigenvalueOptimum:
    """The supremum of lambda_min(m0 + sum_k theta_k D_k) with its two certificates.

    ``value`` is the supremum to within the duality gap (math.inf when it is
    unbounded).  When it is positive, m0 + sum_k theta_k D_k is positive
    definite: its minimum eigenvalue is the value where the barrier attains
    the supremum, and half of it for each semidefinite face the supremum is
    approached along (``_recession_coefficient``); with an unbounded value
    it is at least ``scale``.  ``dual`` is Z >= 0 with
    tr Z = 1 and <Z, D_k> = 0, so that <Z, m0> bounds lambda_min of every
    m0 + sum_k theta_k D_k from above; it is None when the value is unbounded.
    """

    value: float
    theta: np.ndarray
    dual: np.ndarray | None
    steps: int


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product tr(a b) of Hermitian matrices."""
    return float(np.vdot(a, b).real)


def _orthonormal_span(directions: np.ndarray, unit: float) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal Hermitian basis q of span(directions) and c with q_j = sum_k c[k, j] D_k.

    Null directions are dropped at max(shape) * eps times the largest
    singular value or ``unit``, whichever is larger: the directions of a
    face are compressions of an orthonormal basis (unit 1), and rounding
    noise of that size must not count.  They are no unit-complex operator.
    """
    count, n = directions.shape[0], directions.shape[-1]
    if count == 0:
        return np.zeros((0, n, n), dtype=complex), np.zeros((0, 0))
    flat = np.ascontiguousarray(directions, dtype=complex).reshape(count, -1).view(np.float64)
    u, sigma, vt = np.linalg.svd(flat, full_matrices=False)
    cut = max(flat.shape) * np.finfo(float).eps * max(float(sigma[0]), unit)
    rank = int(np.count_nonzero(sigma > cut))
    q = np.ascontiguousarray(vt[:rank]).view(complex).reshape(rank, n, n)
    return 0.5 * (q + q.conj().transpose(0, 2, 1)), u[:, :rank] / sigma[:rank]


def maximize_min_eigenvalue(
    m0: np.ndarray, directions: np.ndarray, scale: float
) -> EigenvalueOptimum:
    """sup over theta of lambda_min(m0 + sum_k theta_k directions_k), to a gap of GAP * scale.

    With no directions the answer is lambda_min(m0).  Otherwise a trace-one
    semidefinite matrix in their span is looked for first: the same problem
    on the traceless part of the span, started from the trace-one matrix
    closest to the origin, has a nonnegative optimum exactly when one
    exists.  A positive definite one makes the value unbounded; a singular
    one restricts the problem to its kernel.  Only when there is none has
    the barrier a central path, and it runs.
    """
    q, coords = _orthonormal_span(directions, 0.0)
    found = _maximize(m0, q, scale)
    return EigenvalueOptimum(found.value, coords @ found.theta, found.dual, found.steps)


def _maximize(m0: np.ndarray, q: np.ndarray, scale: float) -> EigenvalueOptimum:
    """``maximize_min_eigenvalue`` over an orthonormal basis q, theta in its coordinates."""
    if not len(q):
        value, dual = _bottom_eigenspace(m0, GAP * scale)
        return EigenvalueOptimum(value, np.zeros(0), dual, 0)
    trace = np.trace(q, axis1=1, axis2=2).real
    if np.linalg.norm(trace) <= GAP:  # Z = I / n is a positive definite dual point
        return _barrier(m0, q, scale)
    start = trace / (trace @ trace)
    traceless = np.linalg.svd(trace[None, :])[2][1:]  # orthonormal rows orthogonal to trace
    p0 = np.tensordot(start, q, axes=1)
    recession = _maximize(p0, np.tensordot(traceless, q, axes=1), 1.0)
    if _inner(recession.dual, p0) < -GAP:  # no semidefinite matrix in the span
        found = _barrier(m0, q, scale)
        found.steps += recession.steps
        return found
    phi_p = start + traceless.T @ recession.theta
    eigvals, eigvecs = np.linalg.eigh(np.tensordot(phi_p, q, axes=1))
    # P has trace one and its kernel eigenvalues are of order GAP: cut halfway between
    kernel = eigvals <= math.sqrt(GAP)
    if not kernel.any():
        s = max(0.0, scale - float(np.linalg.eigvalsh(m0)[0])) / float(eigvals[0])
        return EigenvalueOptimum(math.inf, s * phi_p, None, recession.steps)
    v, r = eigvecs[:, kernel], eigvecs[:, ~kernel]
    face_q, face_coords = _orthonormal_span(v.conj().T @ q @ v, 1.0)
    face = _maximize(v.conj().T @ m0 @ v, face_q, scale)
    phi = face_coords @ face.theta
    if face.value > 0 and r.shape[1]:
        m = m0 + np.tensordot(phi, q, axes=1)
        phi = phi + _recession_coefficient(m, v, r, eigvals[~kernel]) * phi_p
    dual = None if face.dual is None else v @ face.dual @ v.conj().T
    return EigenvalueOptimum(face.value, phi, dual, recession.steps + face.steps)


def _bottom_eigenspace(m: np.ndarray, width: float) -> tuple[float, np.ndarray]:
    """lambda_min(m) and the trace-one projector onto the eigenvalues within width of it."""
    eigvals, eigvecs = np.linalg.eigh(m)
    bottom = eigvecs[:, eigvals <= eigvals[0] + width]
    return float(eigvals[0]), (bottom @ bottom.conj().T) / bottom.shape[1]


def _recession_coefficient(
    m: np.ndarray, v: np.ndarray, r: np.ndarray, p_range: np.ndarray
) -> float:
    """Least s >= 0 with lambda_min(m + s P) >= half of lambda_min(v* m v).

    P is zero on span(v) and diag(p_range) on span(r), its eigenvectors; by
    the Schur complement the bound holds once s P dominates
    target - A + B (C - target)^-1 B* on span(r), for the blocks
    [[A, B], [B*, C]] of m.  Where B is nonzero the supremum lambda_min(C) is
    approached only as s grows without bound, so the witness keeps half.
    """
    a, b, c = r.conj().T @ m @ r, r.conj().T @ m @ v, v.conj().T @ m @ v
    target = 0.5 * float(np.linalg.eigvalsh(c)[0])
    coupling = b @ np.linalg.solve(c - target * np.eye(len(c)), b.conj().T)
    schur = target * np.eye(len(a)) - a + coupling
    scaled = schur / np.sqrt(np.outer(p_range, p_range))
    return max(0.0, float(np.linalg.eigvalsh(scaled)[-1]))


def _log_det_derivatives(s: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of x -> log det(S + sum_a x_a A_a) at x = 0.

    They are tr(S^-1 A_a) and -tr(S^-1 A_a S^-1 A_b), formed from
    W_a = S^-1/2 A_a S^-1/2 in the eigenbasis of S.
    """
    eigvals, eigvecs = np.linalg.eigh(s)
    root = 1.0 / np.sqrt(eigvals)
    w = (eigvecs.conj().T @ a @ eigvecs) * np.outer(root, root)
    flat = w.reshape(len(a), -1)
    return np.trace(w, axis1=1, axis2=2).real, -(flat.conj() @ flat.T).real


def _barrier(m0: np.ndarray, q: np.ndarray, scale: float) -> EigenvalueOptimum:
    """Newton's method on t / mu + log det(m0 + sum_j phi_j q_j - t I), mu shrinking tenfold.

    Needs a positive definite dual point (no semidefinite matrix in the
    span of q).  Damped steps keep S positive definite; centring stops at a
    Newton decrement below 1e-9, and the path at gap n mu <= GAP * scale.
    """
    n = m0.shape[0]
    eye = np.eye(n)
    a = np.concatenate([q, -eye[None]])  # d S / d (phi, t)
    x = np.zeros(len(a))
    x[-1] = float(np.linalg.eigvalsh(m0)[0]) - scale
    mu, steps = scale, 0
    while True:
        while True:
            s = m0 + np.tensordot(x, a, axes=1)
            grad, hessian = _log_det_derivatives(s, a)
            grad[-1] += 1.0 / mu
            step = np.linalg.solve(-hessian, grad)
            decrement = float(grad @ step)
            if decrement < 1e-9 or steps >= MAX_NEWTON_STEPS:
                break
            x += step / (1.0 + math.sqrt(decrement)) if decrement > 1 / 16 else step
            steps += 1
        if n * mu <= GAP * scale or steps >= MAX_NEWTON_STEPS:
            break
        mu *= 0.1
    # mu S^-1 is centred only to the decrement; the correction sum_k c_k Z q_k Z
    # that restores <Z, q_k> = 0 is measured in Z's own norm, so Z stays >= 0
    z = mu * np.linalg.inv(s)
    zqz = z @ q @ z
    gram = np.array([[_inner(left, right) for right in q] for left in zqz])
    z = z - np.tensordot(np.linalg.solve(gram, [_inner(z, qk) for qk in q]), zqz, axes=1)
    z = 0.5 * (z + z.conj().T)
    value = float(np.linalg.eigvalsh(s)[0]) + x[-1]
    return EigenvalueOptimum(value, x[:-1], z / np.trace(z).real, steps)


# ---------------------------------------------------------------------------
# SKT membership


def skt_cone_feasibility(cls: CohomologyClass) -> ConeMembershipResult:
    """Decide SKT membership of a real Aeppli (1,1)-class.

    Maximizes the minimum eigenvalue over the representatives
    alpha_0 + 2 Re(del u).  A positive optimum gives a witness; otherwise
    the barrier's dual is the separating form, with the stored probes as
    fallback.  A stored probe pairing negatively with a class that has a
    witness raises CrossCheckError.
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
    optimum = maximize_min_eigenvalue(m0, directions, scale)
    best_matrix = m0 + np.tensordot(optimum.theta, directions, axes=1)
    best_value = (
        optimum.value if math.isfinite(optimum.value) else float(np.linalg.eigvalsh(best_matrix)[0])
    )
    separating = _separating_probe(model, alpha0, scale)

    if best_value / scale > TOL_PD:
        if separating is not None:
            raise CrossCheckError(
                f"stored probe {separating['probe']} pairs {separating['pairing']:.3e} "
                f"with a class whose optimum is {best_value:.3e}"
            )
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
            iterations=optimum.steps,
        )

    certificate = _dual_certificate(model, optimum.dual, alpha0) or separating
    return ConeMembershipResult(
        verdict="infeasible_certified" if certificate else "inconclusive",
        witness=None,
        witness_matrix=None,
        best_min_eigenvalue=best_value,
        iterations=optimum.steps,
        certificate=certificate,
    )


def _separating_probe(model: LieModel, alpha0: Form, scale: float) -> dict | None:
    """The first stored probe whose pairing with alpha0 is negative beyond TOL_PD."""
    for probe in closed_positive_probes(model):
        value = integrate_pairing(model, probe.form, alpha0).real
        if value < -TOL_PD * max(probe.form.norm(), 1e-30) * scale:
            return {"probe": probe.label, "pairing": value}
    return None


def _dual_certificate(model: LieModel, z: np.ndarray, alpha0: Form) -> dict | None:
    """The pairing of alpha0 with the form T of positivity matrix n Z, if T certifies.

    T is scaled like the identity power omega^{n-1}/(n-1)!, whose positivity
    matrix is the identity; <Z, M_0> <= 0 is the separation.
    """
    n = model.n
    probe = _try_probe(model, _form_of_positivity_matrix(n * z, n), "dual")
    if probe is None:
        return None
    value = integrate_pairing(model, probe.form, alpha0).real
    return {"probe": "dual", "pairing": value} if value <= 0 else None


def _form_of_positivity_matrix(m: np.ndarray, n: int) -> Form:
    """The real (n-1,n-1)-form t with weak_positivity_matrix(t, n) = m (m Hermitian).

    The map is a signed permutation times a phase, read back from the wedge
    table that builds ``weak_positivity_matrix``.
    """
    r, c, _, sign = alg._wedge_table(n, n - 1, n - 1, 1, 1)
    vec = np.zeros(n * n, dtype=complex)
    vec[r] = m.T.ravel()[c] * sign / _positivity_phase(n)
    t = alg.from_vector(vec, n, n - 1, n - 1)
    return 0.5 * (t + alg.conjugate(t))


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
    return _positivity_phase(n) * top.reshape(n, n).T


def _positivity_phase(n: int) -> complex:
    """i over the phase i^{n^2} of the reference volume element."""
    return 1j / (1j) ** (n * n % 4)


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


def closed_positive_probes(model: LieModel) -> list[ClosedPositiveProbe]:
    """Stored co-positive probe family for separation certificates.

    Candidates: the (n-1)-power of the identity metric and the coordinate
    monomials i^{(n-1)^2} phi^K wedge phibar^K over |K| = n-1, the forms of
    positivity matrix I and e_j e_j^T (j the index K leaves out).  Only
    candidates passing the closedness and positivity certificates are kept.
    """
    n = model.n
    probes = [_try_probe(model, _form_of_positivity_matrix(np.eye(n), n), "identity-power")]
    for j in reversed(range(n)):  # K leaves out j + 1: K in lexicographic order
        label = "monomial-" + "".join(str(i + 1) for i in range(n) if i != j)
        probes.append(_try_probe(model, _form_of_positivity_matrix(np.diag(np.eye(n)[j]), n), label))
    return [p for p in probes if p]


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
