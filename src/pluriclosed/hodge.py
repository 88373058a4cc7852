"""Hermitian metrics, the unitary frame, Hodge star, Laplacians and harmonic spaces.

A metric is a positive definite Hermitian coefficient matrix h in the model
coframe, with fundamental form omega = i sum h_jk phi^j wedge phibar^k.  Its
Cholesky factor h = L L* gives the unitary coframe e = L^T phi, in which
omega = i sum e^a wedge ebar^a.  The basis monomials of e are declared
orthonormal pointwise, and the L2 product carries the metric volume det(h)
(the reference volume element of ``integrate_top`` has volume 1, so the
identity metric has total volume 1).

Every operator matrix of this module is written in unitary-frame
coordinates, one complex per metric: del and delbar are the blocks of the
unit model of the unitary coframe e (``frame_model``, ``alg.unit_model``),
the model of S e, S the largest del or delbar block norm of e
(``complex_scale``).  On the frame coordinates of e they act
as del / S and delbar / S, so the largest block has norm 1 and every
operator, product and Laplacian of the complex is dimensionless, with the
kernels and images of the true-scale ones.  Every adjoint is then a
conjugate transpose, the star is a constant signed permutation, and L and
Lambda are the metric-free wedge by i sum e^a wedge ebar^a and its
conjugate transpose.  Forms stay in the model coframe and
cross into and out of the frame only through ``to_frame`` and
``from_frame``: a (p,q) coefficient vector read as its C(n,p) x C(n,q)
matrix U has the frame coordinates sqrt(vol) A_p U A_q^H, A_k the k-th
compound of L^{-1}, and the compounds of L take them back.  Frame
coordinates are L2-isometric, so L2 products, norms and orthonormal bases
are the plain Hermitian ones of frame vectors.

Harmonic spaces are kernels of one Laplacian, closed* closed + exact exact*,
over the frame (closed, exact) pair of a theory (``closed_and_exact``).  The
de Rham pair is d on real forms of the frame's real model
(``alg.real_model``), whose coframe x, y with e^a = (x^a + i y^a) / sqrt 2
is orthonormal and turns omega into sum x^a wedge y^a: Delta_d is real
symmetric, and the Lefschetz powers on total degrees are metric-free wedge
maps of that real model.  The paper's fourth-order ``laplacian_bc`` and
``laplacian_a`` have the same kernels and are kept as written, for the
checks that test them.

The Hodge star is the complex-linear isomorphism Lambda^{p,q} ->
Lambda^{n-q,n-p} fixed by  u wedge star(conjugate v) = <u, v> dV.  In the
unitary coframe it acts monomial by monomial,

    star(e^A wedge ebar^B) = i^{n^2} (-1)^{n|A|} eps(A) eps(B)
                             e^{comp B} wedge ebar^{comp A},

with eps the shuffle sign of (A, complement A).  The classical formulas
del* = -star delbar star etc. are tested invariants, not definitions,
because their sign conventions vary across sources while the L2 adjoint is
unambiguous.

Ranks take the one cut max(shape) * eps * max(|M|, 1) (``linalg.rank_cut``),
|M| the Frobenius norm: in a unit complex the floor 1 serves operators of
every order alike, so a metric scaled by any t decides the same ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import algebra as alg
from .algebra import Form, LieModel, _frozen
from .errors import CrossCheckError, MetricError, ParseError, PreconditionError
from .linalg import column_space, hermitian_kernel, nullspace, numeric_rank

__all__ = [
    "HermitianMetric",
    "metric_from_matrix",
    "metric_from_document",
    "identity_metric",
    "random_metric",
    "matrix_of_11_form",
    "form_of_hermitian_matrix",
    "to_frame",
    "from_frame",
    "gram_matrix",
    "inner",
    "l2_norm",
    "omega_power",
    "frame_model",
    "del_matrix",
    "delbar_matrix",
    "complex_scale",
    "hodge_star",
    "star_matrix",
    "star_columns",
    "primitive_star_check",
    "lefschetz_L",
    "lefschetz_matrix",
    "lambda_contraction",
    "lambda_matrix",
    "is_primitive",
    "kahler_residual",
    "is_kahler",
    "skt_residual",
    "closed_and_exact",
    "laplacian",
    "laplacian_bc",
    "laplacian_a",
    "laplacian_delbar",
    "laplacian_derham",
    "harmonic_basis",
    "harmonic_space",
    "harmonic_projection",
    "orthonormal_span",
    "subspace_residual",
    "DecompositionReport",
    "three_space_decomposition",
    "quasi_isometry_bounds",
    "lefschetz_harmonic_rank",
    "random_primitive_form",
]

_EPS = float(np.finfo(np.float64).eps)
TOL_EQ = 1e-9  # relative residual under which an equation of a verdict counts as satisfied


@dataclass(eq=False)
class HermitianMetric:
    """Positive definite Hermitian metric on a model, immutable after construction."""

    model: LieModel
    h: np.ndarray
    omega: Form
    cholesky: np.ndarray
    volume: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.model.n


def matrix_of_11_form(u: Form, n: int) -> np.ndarray:
    """Coefficient matrix m of a (1,1)-form u = i sum m_jk phi^j wedge phibar^k."""
    if u.bidegree != (1, 1):
        raise ValueError("matrix_of_11_form needs a (1,1)-form")
    return alg.to_vector(u, n).reshape(n, n) / 1j


def form_of_hermitian_matrix(m: np.ndarray) -> Form:
    """(1,1)-form i sum m_jk phi^j wedge phibar^k; real whenever m is Hermitian."""
    m = np.asarray(m, dtype=complex)
    return Form(m.shape[0], 1, 1, (1j * m).ravel())


def metric_from_matrix(model: LieModel, h: np.ndarray) -> HermitianMetric:
    """Validate h (Hermitian, positive definite) and build the metric."""
    h = np.asarray(h, dtype=complex)
    n = model.n
    if h.shape != (n, n):
        raise MetricError(f"expected a {n}x{n} matrix, got {h.shape}")
    scale = float(np.max(np.abs(h))) or 1.0
    if np.max(np.abs(h - h.conj().T)) > n * _EPS * scale * 10:
        raise MetricError("coefficient matrix is not Hermitian")
    h = 0.5 * (h + h.conj().T)
    eigvals = np.linalg.eigvalsh(h)
    if eigvals[0] <= n * _EPS * float(eigvals[-1]):
        raise MetricError(f"not positive definite (minimum eigenvalue {eigvals[0]:.3e})")
    cholesky = np.linalg.cholesky(h)
    volume = float(np.prod(eigvals))
    return HermitianMetric(
        model=model, h=h, omega=form_of_hermitian_matrix(h), cholesky=cholesky, volume=volume
    )


def identity_metric(model: LieModel) -> HermitianMetric:
    return metric_from_matrix(model, np.eye(model.n))


def metric_from_document(model: LieModel, doc: dict) -> HermitianMetric:
    """Metric from JSON ``{"name": str, "h": [[[re, im], ...], ...]}``.

    Every entry is exactly ``[re, im]`` of finite numbers and the rows have
    equal lengths; a malformed document raises ParseError, a well-formed
    matrix that is no metric on the model raises MetricError.
    """
    if not isinstance(doc, dict) or "h" not in doc:
        raise ParseError("metric document must contain 'h'")
    rows = doc["h"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError("expected a list of rows", "h")
    if len({len(row) for row in rows}) > 1:
        raise ParseError("rows have different lengths", "h")
    h = [
        [alg._parse_coeff(entry, f"h[{i}][{j}]") for j, entry in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return metric_from_matrix(model, np.array(h, dtype=complex))


def random_metric(model: LieModel, rng: np.random.Generator) -> HermitianMetric:
    """Well-conditioned random metric: unitary conjugate of diag in [0.5, 2]."""
    n = model.n
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, _ = np.linalg.qr(a)
    diag = rng.uniform(0.5, 2.0, size=n)
    return metric_from_matrix(model, (qmat * diag) @ qmat.conj().T)


# ---------------------------------------------------------------------------
# the unitary frame


def _cached(g: HermitianMetric, key, build):
    hit = g._cache.get(key)
    if hit is None:
        hit = g._cache[key] = build()
    return hit


def _compound(m: np.ndarray, k: int) -> np.ndarray:
    """k-th compound of m: all k x k minors, sets in lexicographic order; empty outside 0..n."""
    if not 0 <= k <= m.shape[0]:
        return np.zeros((0, 0), dtype=complex)
    if k == 0:
        return np.ones((1, 1), dtype=complex)
    sets = np.array(list(combinations(range(m.shape[0]), k)))
    return np.linalg.det(m[sets[:, None, :, None], sets[None, :, None, :]])


def _compounds(g: HermitianMetric, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-th compounds of L^{-1} and of L, for the Cholesky factor L of the metric.

    phi^j = sum_a (L^{-1})_{aj} e^a, so those of L^{-1} take the holomorphic
    (conjugated: the antiholomorphic) indices of a monomial from the model
    coframe to the unitary frame, and by Cauchy-Binet those of L take them back.
    """
    lower = g.cholesky
    return _cached(
        g, ("compound", k), lambda: (_compound(np.linalg.inv(lower), k), _compound(lower, k))
    )


def _sandwich(holo: np.ndarray, anti: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """holo U anti^H for each (p,q) coefficient row, read as its C(n,p) x C(n,q) matrix U."""
    mats = rows.reshape(*rows.shape[:-1], holo.shape[1], anti.shape[1])
    return (holo @ mats @ anti.conj().T).reshape(rows.shape)


def to_frame(g: HermitianMetric, u: Form) -> np.ndarray:
    """L2-isometric frame coordinates sqrt(vol) A_p U A_q^H, A the compounds of L^{-1}."""
    holo, anti = _compounds(g, u.p)[0], _compounds(g, u.q)[0]
    return math.sqrt(g.volume) * _sandwich(holo, anti, alg.to_vector(u, g.n))


def from_frame(g: HermitianMetric, vec: np.ndarray, p: int, q: int) -> Form:
    """Model-coframe (p,q)-form with the given L2-isometric frame coordinates."""
    holo, anti = _compounds(g, p)[1], _compounds(g, q)[1]
    return Form(g.n, p, q, _sandwich(holo, anti, vec) / math.sqrt(g.volume))


def gram_matrix(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """L2 Gram matrix vol kron(A_p^H A_p, conj(A_q^H A_q)) on Lambda^{p,q}, model coframe basis."""
    holo, anti = _compounds(g, p)[0], _compounds(g, q)[0]
    return g.volume * np.kron(holo.conj().T @ holo, (anti.conj().T @ anti).conj())


def inner(g: HermitianMetric, u: Form, v: Form) -> complex:
    """L2 inner product <<u, v>>, the Hermitian product of the frame coordinates.

    Linear in u and conjugate-linear in v; the frame monomials are
    orthonormal pointwise, so no Gram matrix is formed.
    """
    if u.bidegree != v.bidegree:
        return 0j
    return complex(to_frame(g, v).conj() @ to_frame(g, u))


def l2_norm(g: HermitianMetric, u: Form) -> float:
    val = inner(g, u, u).real
    return math.sqrt(max(val, 0.0))


def omega_power(g: HermitianMetric, k: int) -> Form:
    """Normalized power omega_k = omega^k / k!."""
    return _cached(
        g, ("omega-power", k), lambda: (1.0 / math.factorial(k)) * alg.wedge_power(g.omega, k)
    )


def frame_model(g: HermitianMetric) -> LieModel:
    """The unit model (``alg.unit_model``) of the unitary coframe e = L^T phi.

    d e^a = sum_j L_ja d phi^j: the model's rows move into the frame like any
    other (2,0)- and (1,1)-forms, and L^T recombines them into the rows of e,
    whose blocks Q del Q^{-1} have the largest norm S = ``complex_scale(g)``.
    """
    if "frame" not in g._cache:
        model = g.model
        g._cache["frame"] = alg.unit_model(LieModel(model.name, g.n, *(
            g.cholesky.T @ _sandwich(_compounds(g, p)[0], _compounds(g, q)[0], d)
            for d, (p, q) in ((model.d20, (2, 0)), (model.d11, (1, 1)))
        )))
    return g._cache["frame"][0]


def del_matrix(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """Matrix of del: Lambda^{p,q} -> Lambda^{p+1,q} in the unitary frame, divided by S."""
    return alg.del_matrix(frame_model(g), p, q)


def delbar_matrix(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """Matrix of delbar: Lambda^{p,q} -> Lambda^{p,q+1} in the unitary frame, divided by S."""
    return alg.delbar_matrix(frame_model(g), p, q)


def complex_scale(g: HermitianMetric) -> float:
    """S, the largest Frobenius norm of a del or delbar block of the unitary coframe e."""
    frame_model(g)
    return g._cache["frame"][1]


# ---------------------------------------------------------------------------
# Hodge star


def _shuffle_sign(indices: tuple[int, ...], n: int) -> int:
    comp = [c for c in range(1, n + 1) if c not in indices]
    inversions = sum(1 for a in indices for c in comp if a > c)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _star_permutation(n: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Star on unitary-coframe coordinates as a signed permutation: the
    Lambda^{n-q,n-p} row of each Lambda^{p,q} column, and its unit factor."""
    src = alg.multiindices(n, p, q)
    tgt_index = alg.basis_index(n, n - q, n - p)
    rows = np.empty(len(src), dtype=np.intp)
    gammas = np.empty(len(src), dtype=complex)
    i_n2 = (1j) ** (n * n % 4)
    for col, mi in enumerate(src):
        holo, anti = mi
        comp_holo = tuple(c for c in range(1, n + 1) if c not in holo)
        comp_anti = tuple(c for c in range(1, n + 1) if c not in anti)
        gammas[col] = i_n2 * ((-1) ** ((n * p) % 2)) * _shuffle_sign(holo, n) * _shuffle_sign(anti, n)
        rows[col] = tgt_index[alg.MultiIndex(comp_anti, comp_holo)]
    return _frozen(rows), _frozen(gammas)


def star_matrix(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """Matrix of the Hodge star Lambda^{p,q} -> Lambda^{n-q,n-p} in the unitary frame.

    A signed permutation matrix, built on every call: the dense stars of all
    bidegrees take (C(2n,n))^2 complex entries, 188 MB at n = 7.
    """
    rows, gammas = _star_permutation(g.n, p, q)
    mat = np.zeros((rows.size, rows.size), dtype=complex)
    mat[rows, np.arange(rows.size)] = gammas
    return mat


def star_columns(g: HermitianMetric, p: int, q: int, cols: np.ndarray) -> np.ndarray:
    """``star_matrix(g, p, q) @ cols`` for a frame vector or columns, applied as a permutation."""
    rows, gammas = _star_permutation(g.n, p, q)
    out = np.empty(cols.shape, dtype=complex)
    out[rows] = (gammas * cols.T).T
    return out


def hodge_star(g: HermitianMetric, u: Form) -> Form:
    n = g.n
    if not (0 <= u.p <= n and 0 <= u.q <= n):
        return alg.zero_form(n, n - u.q, n - u.p)
    return from_frame(g, star_columns(g, u.p, u.q, to_frame(g, u)), n - u.q, n - u.p)


# ---------------------------------------------------------------------------
# Lefschetz operators and primitivity


@lru_cache(maxsize=None)
def _unitary_lefschetz(n: int, k: int, p: int, q: int) -> np.ndarray:
    """omega^k wedge . : Lambda^{p,q} -> Lambda^{p+k,q+k} in the unitary frame.

    There omega = i sum e^a wedge ebar^a for every metric, so the matrix is
    metric-free.
    """
    omega = form_of_hermitian_matrix(np.eye(n))
    return _frozen(alg.wedge_matrix(n, alg.wedge_power(omega, k), p, q))


def lefschetz_matrix(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """Matrix of L = omega wedge . : Lambda^{p,q} -> Lambda^{p+1,q+1} in the unitary frame."""
    return _unitary_lefschetz(g.n, 1, p, q)


def lambda_matrix(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """Matrix of the contraction Lambda_omega, the adjoint of L, in the unitary frame."""
    return lefschetz_matrix(g, p - 1, q - 1).conj().T


def lefschetz_L(g: HermitianMetric, k: int, u: Form) -> Form:
    """omega^k wedge u, applied in the unitary frame where the map is metric-free."""
    return from_frame(g, _unitary_lefschetz(g.n, k, u.p, u.q) @ to_frame(g, u), u.p + k, u.q + k)


def lambda_contraction(g: HermitianMetric, u: Form) -> Form:
    if u.p < 1 or u.q < 1:
        return alg.zero_form(g.n, u.p - 1, u.q - 1)
    return from_frame(g, lambda_matrix(g, u.p, u.q) @ to_frame(g, u), u.p - 1, u.q - 1)


@lru_cache(maxsize=None)
def _lefschetz_power_opnorm(n: int, power: int, p: int, q: int) -> float:
    """Largest singular value of omega^power wedge . on Lambda^{p,q} in L2 geometry."""
    mat = _unitary_lefschetz(n, power, p, q)
    return float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0


def is_primitive(g: HermitianMetric, u: Form) -> bool:
    """Primitivity via the contraction kernel, cross-checked against the power test.

    Lambda_omega u = 0 and omega^{n-k+1} wedge u = 0 (k = deg u) are
    equivalent characterizations; both are evaluated (the power residual
    relative to the operator norm of the power map) and must agree.
    """
    n = g.n
    x = to_frame(g, u)
    scale = max(float(np.linalg.norm(x)), 1e-30)
    contraction = float(np.linalg.norm(lambda_matrix(g, u.p, u.q) @ x))
    by_contraction = contraction <= TOL_EQ * scale
    power = n - u.degree + 1
    if power < 0:
        by_power = by_contraction
    else:
        opnorm = max(_lefschetz_power_opnorm(n, power, u.p, u.q), 1.0)
        power_image = _unitary_lefschetz(n, power, u.p, u.q) @ x
        by_power = float(np.linalg.norm(power_image)) <= TOL_EQ * scale * opnorm
    if by_contraction != by_power:
        raise CrossCheckError(
            "primitivity tests disagree (contraction vs power); threshold failure"
        )
    return by_contraction


def primitive_star_check(g: HermitianMetric, v: Form) -> float:
    """Relative residual of the closed star formula on a primitive form.

    On a primitive (p,q)-form v with k = p + q the star acts as
    (-1)^{k(k+1)/2} i^{p-q} omega_{n-p-q} wedge v; returns the L2 residual
    of that identity divided by |v|.
    """
    if v.is_zero():
        return 0.0
    if not is_primitive(g, v):
        raise PreconditionError(
            "form is not omega-primitive",
            {"lambda_contraction": l2_norm(g, lambda_contraction(g, v))},
        )
    n, p, q = g.n, v.p, v.q
    k = p + q
    sign = (-1) ** ((k * (k + 1) // 2) % 2)
    phase = (1j) ** ((p - q) % 4)
    x = to_frame(g, v)  # in the frame, omega_{n-k} wedge . is L^{n-k} / (n-k)!
    predicted = (sign * phase / math.factorial(n - k)) * (_unitary_lefschetz(n, n - k, p, q) @ x)
    return float(np.linalg.norm(star_columns(g, p, q, x) - predicted) / np.linalg.norm(x))


@lru_cache(maxsize=None)
def _primitive_basis(n: int, p: int, q: int) -> np.ndarray:
    """Orthonormal kernel of Lambda_omega on Lambda^{p,q}; metric-free in the unitary frame."""
    return _frozen(nullspace(_unitary_lefschetz(n, 1, p - 1, q - 1).conj().T))


def random_primitive_form(
    g: HermitianMetric, p: int, q: int, rng: np.random.Generator
) -> Form | None:
    """Random element of the primitive subspace of Lambda^{p,q}; None if trivial."""
    if alg.space_dim(g.n, p, q) == 0:
        return None
    null = _primitive_basis(g.n, p, q)
    if null.shape[1] == 0:
        return None
    weights = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
    return from_frame(g, null @ weights, p, q)


def kahler_residual(g: HermitianMetric) -> float:
    """|d omega| / |omega| in model coefficients, invariant under rescaling the metric."""
    return math.hypot(*(f.norm() for f in alg.d_form(g.model, g.omega))) / g.omega.norm()


def is_kahler(g: HermitianMetric) -> bool:
    return kahler_residual(g) <= TOL_EQ


def skt_residual(model: LieModel, w: Form) -> float:
    """|del delbar w| / |w| in model coefficients; 0 for the zero form."""
    size = w.norm()
    return alg.del_form(model, alg.delbar_form(model, w)).norm() / size if size else 0.0


# ---------------------------------------------------------------------------
# Laplacians, in the unitary frame where every adjoint is a conjugate transpose


def laplacian_bc(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """Fourth-order Bott-Chern Laplacian on Lambda^{p,q}.

    del* del + delbar* delbar
    + (del delbar)* (del delbar) + (del delbar)(del delbar)*
    + (del* delbar)* (del* delbar) + (del* delbar)(del* delbar)*

    Built once per metric and (p,q); the matrix is read-only.
    """

    def build():
        d1 = del_matrix(g, p, q)
        db1 = delbar_matrix(g, p, q)
        ddb = del_matrix(g, p, q + 1) @ db1  # (p,q) -> (p+1,q+1)
        ddb_in = del_matrix(g, p - 1, q) @ delbar_matrix(g, p - 1, q - 1)  # (p-1,q-1) -> (p,q)
        # del* delbar from (p,q) and into (p,q)
        m_out = del_matrix(g, p - 1, q + 1).conj().T @ db1  # (p,q) -> (p-1,q+1)
        m_in = d1.conj().T @ delbar_matrix(g, p + 1, q - 1)  # (p+1,q-1) -> (p,q)
        return _frozen(
            d1.conj().T @ d1
            + db1.conj().T @ db1
            + ddb.conj().T @ ddb
            + ddb_in @ ddb_in.conj().T
            + m_out.conj().T @ m_out
            + m_in @ m_in.conj().T
        )

    return _cached(g, ("laplacian_bc", p, q), build)


def laplacian_a(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """Fourth-order Aeppli Laplacian on Lambda^{p,q}.

    del del* + delbar delbar*
    + (del delbar)* (del delbar) + (del delbar)(del delbar)*
    + (del delbar*)(del delbar*)* + (del delbar*)* (del delbar*)

    Built once per metric and (p,q); the matrix is read-only.
    """

    def build():
        d0 = del_matrix(g, p - 1, q)  # (p-1,q) -> (p,q)
        db0 = delbar_matrix(g, p, q - 1)
        ddb = del_matrix(g, p, q + 1) @ delbar_matrix(g, p, q)
        ddb_in = d0 @ delbar_matrix(g, p - 1, q - 1)
        # del delbar* into (p,q) and from (p,q)
        k_in = d0 @ delbar_matrix(g, p - 1, q).conj().T  # (p-1,q+1) -> (p,q)
        k_out = del_matrix(g, p, q - 1) @ db0.conj().T  # (p,q) -> (p+1,q-1)
        return _frozen(
            d0 @ d0.conj().T
            + db0 @ db0.conj().T
            + ddb.conj().T @ ddb
            + ddb_in @ ddb_in.conj().T
            + k_in @ k_in.conj().T
            + k_out.conj().T @ k_out
        )

    return _cached(g, ("laplacian_a", p, q), build)


def closed_and_exact(g: HermitianMetric, theory: str, p: int, q: int | None = None):
    """The (closed, exact) pair of a theory (``alg.closed_and_exact``) in the unitary frame."""
    return alg.closed_and_exact(frame_model(g), theory, p, q)


def laplacian(g: HermitianMetric, theory: str, p: int, q: int | None = None) -> np.ndarray:
    """closed* closed + exact exact*, with kernel ker closed & ker exact*, the harmonic space.

    For Bott-Chern and Aeppli that is the kernel of the six-term
    ``laplacian_bc`` and ``laplacian_a``: their extra terms vanish there.
    """
    closed, exact = closed_and_exact(g, theory, p, q)
    lap = closed.conj().T @ closed
    del closed  # the de Rham d_k is built for this call: drop it before the second product
    lap += exact @ exact.conj().T
    return lap


def laplacian_delbar(g: HermitianMetric, p: int, q: int) -> np.ndarray:
    """Dolbeault Laplacian delbar delbar* + delbar* delbar."""
    return laplacian(g, "dolbeault", p, q)


def laplacian_derham(g: HermitianMetric, k: int) -> np.ndarray:
    """de Rham Laplacian d* d + d d* on real k-forms, in the orthonormal real frame."""
    return laplacian(g, "derham", k)


# ---------------------------------------------------------------------------
# harmonic spaces and decompositions


def harmonic_basis(lap: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis of a frame Laplacian: frame columns, so L2-orthonormal."""
    return hermitian_kernel(lap)


def harmonic_space(g: HermitianMetric, lap: np.ndarray, p: int, q: int) -> list[Form]:
    """Kernel basis of a Laplacian on Lambda^{p,q}, as Forms."""
    return [from_frame(g, col, p, q) for col in harmonic_basis(lap).T]


def harmonic_projection(g: HermitianMetric, basis: list[Form], u: Form) -> Form:
    """Orthogonal projection of u onto the span of an L2-orthonormal basis."""
    out = alg.zero_form(g.n, u.p, u.q)
    for b in basis:
        out = out + inner(g, u, b) * b
    return out


def orthonormal_span(columns: np.ndarray) -> np.ndarray:
    """L2-orthonormal basis of the span of frame columns."""
    return column_space(columns)


def subspace_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |<a_i, b_j>| between two L2-orthonormal families of frame columns."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(b.conj().T @ a)))


@dataclass
class DecompositionReport:
    """Orthogonal three-space splitting of Lambda^{p,q} for one Laplacian.

    The parts are the kernel, im exact and im closed* for the theory's
    (closed, exact) pair: for Bott-Chern (kernel, image of del delbar, image
    of del* + image of delbar*), for Aeppli (kernel, image of (del delbar)*,
    image of del + image of delbar).  ``closed_dim`` is the dimension of
    ker closed, which must split as kernel (+) im exact.
    """

    theory: str
    p: int
    q: int
    dim_total: int
    dim_kernel: int
    dim_exact: int
    dim_coexact: int
    orthogonality_residual: float
    dims_sum_ok: bool
    closed_dim: int
    closed_split_ok: bool
    image_rank: int
    image_split_ok: bool

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def three_space_decomposition(
    g: HermitianMetric, theory: str, p: int, q: int
) -> DecompositionReport:
    """Verify the orthogonal splitting induced by the Bott-Chern or Aeppli Laplacian.

    The harmonic part is the kernel of the six-term ``laplacian_bc`` or
    ``laplacian_a``, so the paper's operators are checked too.  Their terms
    have orders 2 and 4, which the unit frame complex puts on one scale, so
    every rank decision takes the same ``linalg.rank_cut``.
    """
    if theory not in ("bc", "aeppli"):
        raise ValueError("theory must be 'bc' or 'aeppli'")
    total = alg.space_dim(g.n, p, q)
    lap = (laplacian_bc if theory == "bc" else laplacian_a)(g, p, q)
    closed, exact = closed_and_exact(g, theory, p, q)
    kernel = harmonic_basis(lap)
    image = orthonormal_span(exact)
    coimage = orthonormal_span(closed.conj().T)
    pairs = ((kernel, image), (kernel, coimage), (image, coimage))
    residual = max(subspace_residual(a, b) for a, b in pairs)
    closed_dim = closed.shape[1] - numeric_rank(closed)
    closed_split_ok = closed_dim == kernel.shape[1] + image.shape[1]
    image_rank = numeric_rank(lap)
    if theory == "aeppli":  # the report names im (del delbar)* the exact part
        image, coimage = coimage, image
    return DecompositionReport(
        theory=theory,
        p=p,
        q=q,
        dim_total=total,
        dim_kernel=kernel.shape[1],
        dim_exact=image.shape[1],
        dim_coexact=coimage.shape[1],
        orthogonality_residual=residual,
        dims_sum_ok=total == kernel.shape[1] + image.shape[1] + coimage.shape[1],
        closed_dim=closed_dim,
        closed_split_ok=closed_split_ok,
        image_rank=image_rank,
        image_split_ok=image_rank == image.shape[1] + coimage.shape[1],
    )


# ---------------------------------------------------------------------------
# Lefschetz power maps on harmonic forms


def _lefschetz_power_matrix(n: int, k: int, degree: int) -> np.ndarray:
    """omega^k wedge . : Lambda^degree -> Lambda^{degree+2k} on real forms of the real frame.

    There omega = sum x^a wedge y^a (``alg.real_model``), the same for every metric.
    """
    omega = np.zeros(alg.space_dim(2 * n, 2, 0))
    index = alg.basis_index(2 * n, 2, 0)
    omega[[index[alg.MultiIndex((a, n + a), ())] for a in range(1, n + 1)]] = 1.0
    return alg.wedge_matrix(2 * n, alg.wedge_power(Form(2 * n, 2, 0, omega), k), degree, 0)


def quasi_isometry_bounds(
    g: HermitianMetric, k: int, p: int, restrict_harmonic: bool = True
) -> tuple[float, float]:
    """Extreme singular values of omega^k wedge . on (harmonic) p-forms.

    With ``restrict_harmonic`` the domain is the space of de Rham harmonic
    p-forms, which requires a Kahler metric; sigma_min > 0 certifies
    injectivity there (expected whenever 2p + 2k <= 2n).  Without the
    restriction any metric is accepted and the raw singular values over all
    of Lambda^p are returned.
    """
    if restrict_harmonic and not is_kahler(g):
        raise PreconditionError("harmonic restriction needs a Kahler metric")
    if k == 0:
        return (1.0, 1.0)
    n = g.n
    if p + 2 * k > 2 * n or p > 2 * n:
        return (0.0, 0.0)
    image = _lefschetz_power_matrix(n, k, p)
    if restrict_harmonic:
        image = image @ harmonic_basis(laplacian_derham(g, p))
    cols = image.shape[1]
    if cols == 0:
        return (0.0, 0.0)
    s = np.linalg.svd(image, compute_uv=False)
    sigma_max = float(s[0]) if s.size else 0.0
    sigma_min = float(s[cols - 1]) if s.size >= cols else 0.0
    return (sigma_min, sigma_max)


def lefschetz_harmonic_rank(g: HermitianMetric, k: int, p: int) -> tuple[int, int]:
    """(rank of omega^k wedge . from harmonic p-forms into harmonic (p+2k)-forms, target dim)."""
    if not is_kahler(g):
        raise PreconditionError("harmonic rank check needs a Kahler metric")
    n = g.n
    if p + 2 * k > 2 * n:
        return (0, 0)
    domain = harmonic_basis(laplacian_derham(g, p))
    target = harmonic_basis(laplacian_derham(g, p + 2 * k))
    if k == 0:
        return (domain.shape[1], target.shape[1])
    coords = target.conj().T @ (_lefschetz_power_matrix(n, k, p) @ domain)
    return (numeric_rank(coords), target.shape[1])
