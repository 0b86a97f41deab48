"""Hermitian trace-form SDP solver and randomized phase rounding.

Solves small problems of the form

    max/min  Tr(C X) + c.u
    s.t.     Tr(A_i X) + a_i.u  {<=,==,>=}  b_i,   X >= 0 (PSD),  u >= 0,

where X is a Hermitian matrix variable and u an optional vector of
nonnegative scalars (used for epigraph variables). Each data matrix is
factored as F diag(w_i) F^H over one shared column basis F. The core is an
infeasible-start primal-dual path-following method on the complex iterate
with the XZ (HKM) scaling direction, Mehrotra predictor-corrector, and one
fraction-to-boundary step length shared by the primal and dual iterates. Its
Schur complement comes from the factors, M = 1/2 W^T Re(P o Q^T) W with
P = F^H X F, Q = F^H S^-1 F and W the row weights, never from row pairs.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

_RANK_TOL = 1e-7          # grp_draw: rank one below this eigenvalue/trace share


class SdpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    MAX_ITERATIONS = "MaxIterations"
    BREAKDOWN = "Breakdown"


class SdpSolverError(RuntimeError):
    """Hard solver failure (bad problem data or numerical breakdown)."""


@dataclass
class SolverConfig:
    tolerance: float = 1e-8
    max_iterations: int = 200
    step_fraction: float = 0.99

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not (0.0 < self.step_fraction < 1.0):
            raise ValueError("step_fraction must lie in (0, 1)")


@dataclass
class SdpProblem:
    """Max-trace program over one Hermitian PSD block.

    constraints: list of (data, relation, bound) or
    (data, relation, bound, scalar_coeffs) tuples with relation one of
    "<=", "==", ">=". scalar_coeffs (length n_scalars) couples the optional
    nonnegative scalar variables into the row.

    The objective and each row's data are a dim x dim Hermitian matrix or a
    length-R real weight vector w standing for F diag(w) F^H, F = ``basis``.
    """

    dim: int
    objective: np.ndarray
    constraints: list
    maximize: bool = True
    n_scalars: int = 0
    scalar_objective: np.ndarray | None = None
    basis: np.ndarray | None = None


@dataclass
class SdpSolution:
    matrix: np.ndarray
    objective_value: float
    status: SdpStatus
    duality_gap: float
    residuals: float
    iterations: int
    scalars: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _factor(data, basis, dim: int, what: str):
    """(columns, weights) of one data entry: a weight vector over the shared
    basis (columns None), or the eigenpairs of a dense Hermitian matrix with
    its numerically zero eigenvalues dropped."""
    if np.ndim(data) == 1:
        w = np.asarray(data, dtype=float)
        if basis is None or w.shape != (basis.shape[1],):
            raise ValueError(f"{what}: a weight vector needs a basis with {w.size} columns")
        return None, w
    mat = np.asarray(data, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {mat.shape}")
    if np.abs(mat - mat.conj().T).max() > 1e-12 * max(1.0, float(np.abs(mat).max())):
        raise ValueError(f"{what} is not Hermitian")
    lam, vec = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    keep = np.abs(lam) > 1e-14 * np.abs(lam).max(initial=0.0)
    return vec[:, keep], lam[keep]


def _embedded_norms(gram2, w, vecs) -> np.ndarray:
    """Frobenius norms of rows F diag(w_i) F^H (+ a_i) in the real symmetric
    embedding 1/2 [[Re, -Im], [Im, Re]]: sqrt(|A_i|_F^2 / 2 + |a_i|^2)."""
    frob2 = np.maximum((w * (gram2 @ w)).sum(axis=0), 0.0)
    return np.sqrt(0.5 * frob2 + (vecs ** 2).sum(axis=1))


def _inv_factor(mat: np.ndarray) -> np.ndarray:
    """R with R mat R^H = I for a Hermitian positive definite mat: the
    inverse of its Cholesky factor. A failed factorization is retried with
    growing diagonal jitter; past that, the eigendecomposition gives the
    factor of the pseudo-inverse."""
    eye = np.eye(mat.shape[0])
    scale = max(float(np.abs(mat).max(initial=0.0)), 1e-300)
    for jitter in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        try:
            return np.linalg.inv(np.linalg.cholesky(mat + jitter * scale * eye))
        except np.linalg.LinAlgError:
            continue
    lam, vec = np.linalg.eigh(mat)
    keep = lam > np.finfo(float).eps * mat.shape[0] * max(float(lam[-1]), 0.0)
    return (vec[:, keep] / np.sqrt(lam[keep])).conj().T


def _max_step(r, d, xd, dxd) -> float:
    """Largest t with x + t*d PSD and xd + t*dxd >= 0, given r = _inv_factor(x)."""
    w = r @ d @ r.conj().T
    lam_min = float(np.linalg.eigvalsh(0.5 * (w + w.conj().T)).min())
    t = np.inf if lam_min >= -1e-13 else -1.0 / lam_min
    if xd.size:
        neg = dxd < 0
        if neg.any():
            t = min(t, float((-xd[neg] / dxd[neg]).min()))
    return t


def _ipm(f, gram2, w, vecs, b, c_w, c_vec, cfg: SolverConfig):
    """Infeasible-start HKM predictor-corrector on factored complex data.

    Primal: max Tr(C X) + c.u s.t. Tr(A_i X) + a_i.u = b_i, X PSD, u >= 0,
    with A_i = F diag(w[:, i]) F^H, C = F diag(c_w) F^H and gram2 the
    elementwise |F^H F|^2 that solve() already formed. The dual slack is
    kept halved, S = (A*(y) - C)/2, and mu is the gap 2 Re Tr(XS) + xd.sd
    over nu = 2n + nd: the scaling of the program's real symmetric
    embedding, whose HKM iterates these are.
    Primal and dual take one common step, the smaller of their two
    fraction-to-boundary lengths, so both residuals shrink by the same
    factor. With separate lengths the dual can run ahead while the primal
    step collapses, and the primal residual then never closes. A numerical
    breakdown (non-finite or overflowing iterate, failed factorization or a
    step below 1e-10) ends the loop with BREAKDOWN.
    """
    n, m = f.shape[0], w.shape[1]
    nd = vecs.shape[1]
    nu = 2 * n + nd
    eye = np.eye(n)
    fh = f.conj().T
    tol = cfg.tolerance

    def a_op(g):  # Re Tr(A_i G) for every row
        return w.T @ (f.conj() * (g @ f)).sum(axis=0).real

    def a_adj(v):  # sum_i v_i A_i
        return (f * (w @ v)) @ fh

    half_c = 0.5 * ((f * c_w) @ fh)
    a_norms = _embedded_norms(gram2, w, vecs)
    norm_b = float(np.linalg.norm(b))
    norm_c = float(_embedded_norms(gram2, c_w[:, None], c_vec[None, :])[0])

    xi = max(10.0, math.sqrt(2 * n),
             float((2 * n * (1.0 + np.abs(b)) / (1.0 + a_norms)).max(initial=0.0)))
    eta = max(10.0, math.sqrt(2 * n), float(a_norms.max(initial=0.0)), norm_c)
    x = xi * eye.astype(complex)
    xd = xi * np.ones(nd)
    s = eta * eye.astype(complex)
    sd = eta * np.ones(nd)
    y = np.zeros(m)

    status = SdpStatus.BREAKDOWN            # for every break that sets nothing
    relgap = np.inf
    resid = np.inf
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        if not all(np.isfinite(v).all() for v in (x, s, y, xd, sd)):
            relgap = resid = np.inf
            break
        ax = a_op(x) + vecs @ xd
        rp = b - ax
        ys_mat = 0.5 * a_adj(y)
        ys_vec = vecs.T @ y
        rd_mat = ys_mat - s - half_c
        rd_vec = ys_vec - sd - c_vec

        gap = 2.0 * float(np.vdot(x, s).real) + float(xd @ sd)
        pobj = 2.0 * float(np.vdot(half_c, x).real) + float(c_vec @ xd)
        dobj = float(b @ y)
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        pres = float(np.linalg.norm(rp)) / (1.0 + norm_b)
        dres = math.sqrt(2.0 * float(np.vdot(rd_mat, rd_mat).real)
                         + float(rd_vec @ rd_vec)) / (1.0 + norm_c)
        resid = max(pres, dres)
        if resid <= tol and relgap <= tol:
            status = SdpStatus.OPTIMAL
            break
        if gap > 1e100 or abs(pobj) > 1e100:
            break

        ny = float(np.linalg.norm(y))
        if ny > 1e-12 and dobj / ny < -1e-6:
            # Farkas test: A*(y) >= 0 with b.y < 0 certifies primal infeasibility.
            lam = float(np.linalg.eigvalsh(ys_mat).min()) / ny
            if nd:
                lam = min(lam, float(ys_vec.min()) / ny)
            if lam >= -1e-9:
                status = SdpStatus.INFEASIBLE
                break
        if pobj > 1e12 * max(1.0, norm_b, norm_c) and (
                pres <= max(tol, 1e-6) or float(np.linalg.norm(ax)) <= tol * pobj):
            # A huge iterate that nearly solves A(X) = 0 per unit of objective
            # is an improving ray: the dual is infeasible.
            status = SdpStatus.UNBOUNDED
            break

        def direction(taumu, h_mat, h_vec):
            g_mat = (taumu * eye - h_mat - x_rd) @ s_inv
            g_vec = (taumu - h_vec - xd * rd_vec) * sd_inv
            rhs = a_op(g_mat) - b
            if nd:
                rhs = rhs + vecs @ g_vec
            dy = r_m.T @ (r_m @ rhs)
            ds_mat = 0.5 * a_adj(dy) + rd_mat
            ds_vec = vecs.T @ dy + rd_vec
            dx_raw = taumu * s_inv - x - (h_mat + x @ ds_mat) @ s_inv
            dx_mat = 0.5 * (dx_raw + dx_raw.conj().T)
            dx_vec = (taumu - h_vec - xd * ds_vec) * sd_inv - xd
            return dx_mat, dx_vec, dy, ds_mat, ds_vec

        mu = gap / nu
        try:
            r_x, r_s = _inv_factor(x), _inv_factor(s)
            s_inv = r_s.conj().T @ r_s
            sd_inv = 1.0 / sd
            big_m = 0.5 * (w.T @ ((fh @ x @ f) * (fh @ s_inv @ f).T).real @ w)
            if nd:
                big_m += (vecs * (xd * sd_inv)) @ vecs.T
            r_m = _inv_factor(0.5 * (big_m + big_m.T))
            x_rd = x @ rd_mat

            dxa, dxda, dya, dsa, dsda = direction(0.0, np.zeros((n, n)), np.zeros(nd))
            ap_a = min(1.0, _max_step(r_x, dxa, xd, dxda))
            ad_a = min(1.0, _max_step(r_s, dsa, sd, dsda))
            mu_aff = (2.0 * float(np.vdot(x + ap_a * dxa, s + ad_a * dsa).real)
                      + float((xd + ap_a * dxda) @ (sd + ad_a * dsda))) / nu
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            dx, dxd_, dy, ds, dsd_ = direction(sigma * mu, dxa @ dsa, dxda * dsda)
            step = min(1.0, cfg.step_fraction * min(_max_step(r_x, dx, xd, dxd_),
                                                    _max_step(r_s, ds, sd, dsd_)))
        except (np.linalg.LinAlgError, FloatingPointError):
            break
        if not (np.isfinite(dx).all() and np.isfinite(ds).all()
                and np.isfinite(dy).all()) or step < 1e-10:
            break
        x = 0.5 * ((x + step * dx) + (x + step * dx).conj().T)
        xd = xd + step * dxd_
        y = y + step * dy
        s = 0.5 * ((s + step * ds) + (s + step * ds).conj().T)
        sd = sd + step * dsd_
    else:
        status = SdpStatus.MAX_ITERATIONS

    pobj = 2.0 * float(np.vdot(half_c, x).real) + float(c_vec @ xd)
    return x, xd, y, status, it, relgap, resid, pobj


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve a trace-form Hermitian SDP by native complex HKM on factored rows.

    Weight-vector data shares the columns of ``problem.basis``; each dense
    matrix adds its eigenvectors as further columns, so every program takes
    the same factored path. On OPTIMAL the reported duality gap and residuals
    are below the configured tolerance. MAX_ITERATIONS (the iteration cap)
    and BREAKDOWN (a numerical failure before it) are never reported as
    OPTIMAL.
    """
    cfg = config or SolverConfig()
    n = problem.dim
    p = problem.n_scalars
    sign = 1.0 if problem.maximize else -1.0
    basis = None if problem.basis is None else np.asarray(problem.basis, dtype=complex)
    if basis is not None and (basis.ndim != 2 or basis.shape[0] != n):
        raise ValueError(f"basis must have {n} rows, got shape {basis.shape}")

    c_scal = np.zeros(p)
    if problem.scalar_objective is not None:
        c_scal = np.asarray(problem.scalar_objective, dtype=float).reshape(p)

    entries = [_factor(problem.objective, basis, n, "objective")]
    rows = []
    for idx, con in enumerate(problem.constraints):
        if len(con) == 3:
            data, rel, bound = con
            coeffs = np.zeros(p)
        else:
            data, rel, bound, coeffs = con
            coeffs = np.asarray(coeffs, dtype=float).reshape(p)
        if rel not in ("<=", "==", ">="):
            raise ValueError(f"constraint {idx}: unknown relation {rel!r}")
        entries.append(_factor(data, basis, n, f"constraint {idx}"))
        rows.append((rel, float(bound), coeffs))

    # One shared basis: the problem's columns, then each dense entry's eigenvectors.
    cols = [np.zeros((n, 0), dtype=complex) if basis is None else basis]
    placed = []                                  # (first column, weights) per entry
    for vec, wts in entries:
        placed.append((0 if vec is None else sum(c.shape[1] for c in cols), wts))
        cols += [] if vec is None else [vec]
    f = np.hstack(cols)
    w = np.zeros((f.shape[1], len(entries)))
    for j, (at, wts) in enumerate(placed):
        w[at:at + wts.size, j] = wts
    c_w, w = sign * w[:, 0], w[:, 1:]

    n_slack = sum(1 for rel, _, _ in rows if rel != "==")
    nd = p + n_slack
    m = len(rows)

    vecs = np.zeros((m, nd))
    b = np.empty(m)
    slack_at = p
    for i, (rel, bound, coeffs) in enumerate(rows):
        vecs[i, :p] = coeffs
        if rel == "<=":
            vecs[i, slack_at] = 1.0
            slack_at += 1
        elif rel == ">=":
            vecs[i, slack_at] = -1.0
            slack_at += 1
        b[i] = bound

    # Row equilibration plus objective normalization for conditioning.
    gram2 = np.abs(f.conj().T @ f) ** 2
    row_scale = np.maximum(_embedded_norms(gram2, w, vecs), 1e-300)
    w = w / row_scale
    vecs /= row_scale[:, None]
    b = b / row_scale

    c_vec = np.zeros(nd)
    c_vec[:p] = sign * c_scal
    c_scale = float(_embedded_norms(gram2, c_w[:, None], c_vec[None, :])[0])
    if c_scale < 1e-18:
        c_scale = 1.0
    c_w = c_w / c_scale
    c_vec = c_vec / c_scale

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, xd, y, status, it, relgap, resid, pobj = _ipm(f, gram2, w, vecs, b, c_w, c_vec, cfg)

    return SdpSolution(
        matrix=x,
        objective_value=sign * pobj * c_scale,
        status=status,
        duality_gap=relgap,
        residuals=resid,
        iterations=it,
        scalars=xd[:p].copy(),
        dual=sign * y * c_scale / row_scale,
    )


def _unit_phase(z: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    out = np.where(mag > 0, z / np.where(mag > 0, mag, 1.0), 1.0 + 0.0j)
    return out


def grp_draw(z_matrix: np.ndarray, candidates: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian randomization of a lifted covariance into phase vectors.

    Draws ``candidates`` vectors zt = U sqrt(Sigma) r with r ~ CN(0, I) from
    the eigendecomposition of z_matrix and maps each to a unit-modulus pattern
    via entrywise zt(i)/zt(N+1); returns them as a (batch, N) complex array.
    If the input is rank one (second eigenvalue below _RANK_TOL times the
    trace) the batch is the single deterministic eigenvector extraction and
    no randomness is consumed. A covariance that gives the lifted coordinate
    N+1 no variance raises ValueError: no draw can be normalized.
    """
    if candidates < 1:
        raise ValueError("need at least one candidate")
    z = np.asarray(z_matrix, dtype=complex)
    z = 0.5 * (z + z.conj().T)
    size = z.shape[0]
    n_phase = size - 1
    lam, u = np.linalg.eigh(z)
    lam = np.clip(lam, 0.0, None)
    trace = float(lam.sum())
    if trace <= 0:
        raise ValueError("input covariance has nonpositive trace")

    if size > 1 and float(lam[:-1].max()) <= _RANK_TOL * trace:
        vec = u[:, -1] * math.sqrt(lam[-1])
        if abs(vec[-1]) > 1e-9 * math.sqrt(trace):
            return _unit_phase(vec[:n_phase] / vec[n_phase])[None, :]

    factor = u * np.sqrt(lam)
    batches, remaining = [], candidates
    while remaining > 0:
        draw = (rng.standard_normal((size, remaining))
                + 1j * rng.standard_normal((size, remaining))) / math.sqrt(2.0)
        zt = factor @ draw
        denom = zt[n_phase, :]
        keep = np.abs(denom) > 1e-300
        if not keep.any():
            raise ValueError("input covariance gives the lifted coordinate no variance")
        batches.append(_unit_phase((zt[:n_phase, keep] / denom[keep]).T))
        remaining -= int(keep.sum())
    return batches[0] if len(batches) == 1 else np.vstack(batches)


def grp_round(z_matrix: np.ndarray, candidates: int, score, rng: np.random.Generator):
    """The `grp_draw` candidate maximizing the caller's score, as (v, score).
    ``score`` maps a (batch, N) complex array to one float per candidate;
    ties go to the first candidate drawn."""
    batch = grp_draw(z_matrix, candidates, rng)
    scores = np.asarray(score(batch), dtype=float).reshape(-1)
    i = int(np.argmax(scores))
    return batch[i].copy(), float(scores[i])


def substream(seed: int, *key) -> np.random.Generator:
    """Deterministic child generator for (seed, key), independent of ordering."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))
