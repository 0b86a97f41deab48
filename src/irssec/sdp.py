"""Hermitian trace-form SDP solver and randomized phase rounding.

The solver takes an `SdpBatch`: L programs of one shape, lane l being

    max  Tr(C_l X)
    s.t. Tr(A_li X)  {<=,==,>=}_i  b_li,   X >= 0 (PSD),

with X a Hermitian matrix variable and every data matrix F diag(w) F^H for
a weight vector w over one shared column basis F; each inequality row gets
a nonnegative slack. `solve_batch` runs the lanes in lockstep along a
leading lane axis through an infeasible-start primal-dual path-following
method on the complex iterate: XZ (HKM) scaling, Mehrotra
predictor-corrector, one fraction-to-boundary step length shared by the
primal and dual iterates, and the Schur complement M = 1/2 W^T Re(P o Q^T) W
from the factors (P = F^H X F, Q = F^H S^-1 F, W the row weights), never
from row pairs. The library's basis is [I, U], the n x n identity followed
by K user lifts, and `_Basis` reads that identity block's entries instead of
multiplying by it: the products with F cost O(n^2 K), not O(n^3). One
stacked Cholesky test of every matrix of the stack shows which matrices stay
positive definite up to the step their eigenvalues could bound; only the
others take `eigvalsh` for their step lengths. No LAPACK call raises: a
finite matrix that fails its factorization is retried with jitter, and a
non-finite value ends its lane; each stack runs under one
np.errstate(all="ignore"), whatever the caller's. Each lane keeps its own
step lengths and stopping tests, and a lane that stops leaves the stack, so
every lane follows bitwise the iterates it follows alone. The lanes run in stacks of
`_stack_width` lanes in the calling process, and a stack's outputs depend
only on its own lanes. `solve_batch` is the solver's one entry point; the
library builds its one program shape, a PSD block held to a constant
diagonal with rows a I + b T_k (the max-min SNR bound and the
Charnes-Cooper lanes), as batches. The rounding (`grp_draw`) takes a stack
of covariances too, `_grp_draws`: one eigendecomposition, each matrix's
bits as alone, and a draw of its own generator per covariance.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

_RANK_TOL = 1e-7          # grp_draw: drops eigenvalues below this share of the trace
# Matrix entries (lanes x n^2) per _ipm stack: 64 lanes at n = 11, 8 at n = 31,
# 2 at n = 61, 1 from n = 63. Median CPU time against 16-lane stacks (BLAS on
# one thread): 0.88, 0.76, 0.80 at 32, 64, 128 lanes on two cct regions' n = 11
# batches; 1.02, 1.00, 0.90 at n = 31, 61, 101 on a four-user algorithm1_cct
# point's lanes, with peak memory 7.9 -> 4.6, 30.2 -> 5.8, 81.7 -> 9.3 MiB.
_STACK_ENTRIES = 64 * 11 ** 2
_STEP_FRACTION = 0.99     # of the fraction-to-boundary length the corrector steps
_MAX_ITERATIONS = 200


class SdpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    MAX_ITERATIONS = "MaxIterations"
    BREAKDOWN = "Breakdown"


class SdpSolverError(RuntimeError):
    """Hard solver failure (bad problem data or numerical breakdown)."""


@dataclass
class SolverConfig:
    tolerance: float = 1e-8

    def __post_init__(self):
        # NaN would run every solve to the cap, inf stop every lane at once
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass
class SdpBatch:
    """L max-trace programs of one shape (see the module docstring), every
    matrix a weight vector over the columns of ``basis`` (n, R):
    ``objective`` (L, R) holds the C_l, ``rows`` (L, m, R) the A_li and
    ``bounds`` (L, m) the b_li. ``sense`` (m,) is each row's relation, +1 for
    <=, 0 for == and -1 for >=; each inequality row's slack enters the
    solver as a nonnegative variable. A minimization is the maximization of
    the negated objective."""

    basis: np.ndarray
    objective: np.ndarray
    rows: np.ndarray
    bounds: np.ndarray
    sense: np.ndarray


@dataclass
class SdpSolution:
    matrix: np.ndarray
    objective_value: float
    status: SdpStatus
    duality_gap: float
    residuals: float
    iterations: int
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _embedded_norms(gram2, w, vecs=None) -> np.ndarray:
    """Frobenius norms of rows F diag(w_i) F^H (+ slack coefficients a_i) in
    the real symmetric embedding 1/2 [[Re, -Im], [Im, Re]]:
    sqrt(|A_i|_F^2 / 2 + |a_i|^2). Leading axes of w and vecs are lanes."""
    frob2 = 0.5 * np.maximum((w * (gram2 @ w)).sum(axis=-2), 0.0)
    return np.sqrt(frob2 if vecs is None else frob2 + (vecs ** 2).sum(axis=-1))


def _dot(a, b) -> np.ndarray:
    """Re sum(conj(a) b) per lane over the other axes, by one BLAS dot per
    lane: bitwise np.vdot of the lane alone (as np.vecdot is for vectors)."""
    return np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1)).real


class _Basis:
    """The shared column basis F of a batch, split into its leading identity
    block (all n columns of the n x n identity when F starts with it, else
    none) and the remaining columns U. The operators read the identity
    block's entries instead of multiplying by it. Leading axes of G, c and
    the results are lanes."""

    def __init__(self, f: np.ndarray):
        n = f.shape[0]
        self.k = n if f.shape[1] >= n and np.array_equal(f[:, :n], np.eye(n)) else 0
        self.u = f[:, self.k:]
        self.uc, self.uh = self.u.conj(), self.u.conj().T

    def diag(self, g):
        """Re diag(F^H G F): Re diag(G) on the identity block, Re diag(U^H G U)
        on U."""
        return np.concatenate([g.diagonal(0, -2, -1)[..., :self.k].real,
                               (self.uc * (g @ self.u)).sum(axis=-2).real], axis=-1)

    def expand(self, c):
        """F diag(c) F^H: diag(c) on the identity block plus U diag(c_U) U^H."""
        out = (self.u * c[..., None, self.k:]) @ self.uh
        np.einsum("...ii->...i", out)[..., :self.k] += c[..., :self.k]
        return out

    def gram(self, g):
        """F^H G F of a Hermitian G, from the blocks G, G U and U^H G U."""
        k, gu = self.k, g @ self.u
        out = np.empty(g.shape[:-2] + (k + gu.shape[-1],) * 2, dtype=complex)
        out[..., :k, :k] = g[..., :k, :k]
        out[..., :k, k:] = gu[..., :k, :]
        out[..., k:, :k] = gu[..., :k, :].conj().swapaxes(-1, -2)
        out[..., k:, k:] = self.uh @ gu
        return out


def _lapack(name: str, mats: np.ndarray) -> np.ndarray:
    """The gufunc under `np.linalg.<name>` (cholesky_lo, inv or eigvalsh_lo)
    on a real or complex stack, without raising: a failed or non-finite
    matrix gives a non-finite result. It flags the failure as an invalid
    floating-point operation, which the caller's np.errstate decides on;
    `_solve_stack` runs the solver under errstate(all="ignore")."""
    return getattr(np.linalg._umath_linalg, name)(mats)


def _definite(mats: np.ndarray) -> np.ndarray:
    """Per Hermitian matrix of a stack, whether it passes a Cholesky
    factorization: a failed or non-finite matrix's factor has a non-finite
    diagonal entry."""
    return np.isfinite(_lapack("cholesky_lo", mats).diagonal(0, -2, -1)).all(axis=-1)


def _boundary_steps(mats, d, ratio, caps, factors) -> np.ndarray:
    """Fraction-to-boundary lengths min(ratio_j, -1/lambda_min(R_j D_j R_j^H))
    of positive definite M_j along D_j (a lambda_min of at least -1e-13 bounds
    nothing, a NaN one gives a zero length), with factors the R_j
    (R_j M_j R_j^H = I). A matrix with M_j + cap_j D_j positive definite
    takes an infinite eigenvalue length without its eigenvalues, so only
    min(cap_j, length) is exact."""
    need = ~_definite(mats + caps[:, None, None] * d)
    if not need.any():
        return ratio                                # min(inf, ratio) is ratio
    every = need.all()
    r, d = (factors, d) if every else (factors[need], d[need])
    w_d = r @ d @ r.conj().swapaxes(-1, -2)
    low = _lapack("eigvalsh_lo", 0.5 * (w_d + w_d.conj().swapaxes(-1, -2))).min(axis=-1)
    lam = low if every else np.zeros(len(need))     # a zero bounds nothing
    if not every:
        lam[need] = low
    length = np.where(lam < -1e-13, -1.0 / np.minimum(lam, -1e-13), np.inf)
    return np.where(np.isnan(lam), 0.0, np.minimum(length, ratio))


def _inv_factor(mat: np.ndarray) -> np.ndarray:
    """R with R mat R^H = I for each Hermitian positive definite matrix of a
    stack: the inverse of its Cholesky factor. A matrix whose factor (read on
    its diagonal, as in `_definite`) or R is not finite takes `_jittered_factor`
    if it is finite, else a NaN R (LAPACK inverts diag(1, inf, 1) to diag(1, 0, 1))."""
    c = _lapack("cholesky_lo", mat)
    r = _lapack("inv", c)
    if np.isfinite(r).all() and np.isfinite(c.diagonal(0, -2, -1)).all():
        return r
    ok = np.isfinite(c.diagonal(0, -2, -1)).all(axis=-1) & np.isfinite(r).all(axis=(-2, -1))
    for j in np.flatnonzero(~ok).tolist():
        r[j] = _jittered_factor(mat[j]) if np.isfinite(mat[j]).all() else math.nan
    return r


def _jittered_factor(one: np.ndarray) -> np.ndarray:
    """`_inv_factor` of one matrix with growing diagonal jitter, then `_pseudo_factor`."""
    eye, scale = np.eye(len(one)), max(float(np.abs(one).max(initial=0.0)), 1e-300)
    for jitter in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        r = _lapack("inv", _lapack("cholesky_lo", one + jitter * scale * eye))
        if np.isfinite(r).all():
            return r
    return _pseudo_factor(one)


def _pseudo_factor(one: np.ndarray) -> np.ndarray:
    """The pseudo-inverse factor of one Hermitian matrix, padded with zero rows."""
    lam, vec = np.linalg.eigh(one)
    keep = lam > np.finfo(float).eps * len(one) * max(float(lam[-1]), 0.0)
    r = np.zeros_like(one)
    r[:keep.sum()] = (vec[:, keep] / np.sqrt(lam[keep])).conj().T
    return r


def _ipm(basis: _Basis, gram2, w, vecs, b, c_w, cfg: SolverConfig) -> list:
    """Infeasible-start HKM predictor-corrector on factored complex data, in
    lockstep over a leading lane axis.

    Lane l solves max Tr(C X) s.t. Tr(A_i X) + a_i.u = b_i, X PSD, u >= 0,
    with A_i = F diag(w[l, :, i]) F^H, C = F diag(c_w[l]) F^H, b = b[l] and
    a_i = vecs[l, i] the coefficients of the inequality slacks u; the basis
    F and gram2 = |F^H F|^2 are shared, and every product with F goes
    through `_Basis`, which reads F's identity block instead of multiplying
    by it. The dual slack is kept halved, S = (A*(y) - C)/2, and mu is the
    gap 2 Re Tr(XS) + xd.sd over nu = 2n + nd: the scaling of the program's
    real symmetric embedding, whose HKM iterates these are. An empty slack
    block (nd = 0) contributes exact zeros. Primal and dual take one common
    step, the smaller of their two fraction-to-boundary lengths, so both
    residuals shrink by the same factor (with separate lengths the dual can
    run ahead while the primal residual never closes).

    A fraction-to-boundary length is the least of its vector ratio and
    -1/lambda_min(R D R^H), R the inverse Cholesky factor of the matrix (X or
    S) and D its direction (`_boundary_steps`). The eigenvalue matters only
    below a cap: the predictor steps min(1, length), so its cap is
    min(1, the side's ratio), and the corrector steps min(1, _STEP_FRACTION *
    the smaller length), so its cap is min(1/_STEP_FRACTION, both ratios).
    Every matrix of the stack is first tested at its cap by one stacked
    Cholesky factorization; one that stays positive definite skips the
    eigenvalues. The inverse factors of every X and S are made in one call.
    Where the test and the eigenvalue agree, the step is the eigenvalue's
    bitwise.

    Each lane has its own step lengths and stopping tests, held as arrays
    over the active lanes. A lane that stops is frozen and leaves the active
    set. Every stacked product, BLAS dot and LAPACK call acts on each lane
    alone, so a lane follows bitwise the iterates it follows when solved
    alone. A NaN residual or Farkas bound never passes a stopping test. No
    LAPACK call raises: a finite matrix that fails its factorization takes
    the `_inv_factor` fallbacks, any other failure leaves a non-finite
    direction or a zero step length, and a numerical breakdown (non-finite
    or overflowing iterate or direction, or a step below 1e-10) ends a lane
    with BREAKDOWN. Returns per lane (x, y, status, iterations, relative
    gap, residual, primal objective).
    """
    lanes, m = b.shape
    n, nd = basis.u.shape[0], vecs.shape[-1]
    nu = 2 * n + nd
    eye = np.eye(n)
    tol = cfg.tolerance
    # The corrector's cap: every length above it gives _STEP_FRACTION * length >= 1.
    top = math.nextafter(1.0 / _STEP_FRACTION, math.inf)

    def a_op(w, g):  # Re Tr(A_i G) for every lane and row
        return np.matvec(w.swapaxes(-1, -2), basis.diag(g))

    def a_adj(w, v):  # sum_i v_i A_i for every lane
        return basis.expand(np.matvec(w, v))

    a_norms = _embedded_norms(gram2, w, vecs)
    norm_c = _embedded_norms(gram2, c_w[..., None])[:, 0]
    least = max(10.0, math.sqrt(2 * n))
    # fmax skips a NaN, so a NaN bound or norm does not enter the start
    xi = np.fmax(least, (2 * n * (1.0 + np.abs(b)) / (1.0 + a_norms)).max(axis=-1, initial=0.0))
    eta = np.fmax(least, np.fmax(a_norms.max(axis=-1, initial=0.0), norm_c))
    start = np.array((xi, eta)).T
    # The active lanes' state; each keeps (X, S) and (xd, sd) as one pair, so
    # that both step searches are one call.
    st = {"xs": start[:, :, None, None] * eye.astype(complex),
          "xsd": start[:, :, None] * np.ones(nd), "y": np.zeros((lanes, m)), "w": w,
          "vecs": vecs, "b": b, "half_c": 0.5 * basis.expand(c_w),
          "scale_b": 1.0 + np.sqrt(np.vecdot(b, b)), "scale_c": 1.0 + norm_c,
          "relgap": np.full(lanes, np.inf), "resid": np.full(lanes, np.inf)}
    # A lane's status code is its status's position in kinds; -1 runs on.
    live, done, kinds = np.arange(lanes), [None] * lanes, list(SdpStatus)
    opt, infeas, cap, brk = map(kinds.index, (SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE,
                                              SdpStatus.MAX_ITERATIONS, SdpStatus.BREAKDOWN))

    def freeze(code, it):
        """Record the active lanes with a status code and drop them."""
        nonlocal st, live
        stop = code >= 0
        x = st["xs"][stop, 0]
        pobj = 2.0 * _dot(st["half_c"][stop], x)
        for lane, x_l, y_l, c, relgap, resid, pobj_l in zip(
                live[stop].tolist(), x, st["y"][stop], code[stop].tolist(),
                st["relgap"][stop].tolist(), st["resid"][stop].tolist(), pobj.tolist()):
            done[lane] = (x_l, y_l, kinds[c], it, relgap, resid, pobj_l)
        live = live[~stop]
        st = {key: val[~stop] for key, val in st.items()}

    def newton():
        """Predictor-corrector step (dxs, dxsd, dy, step) of the active lanes."""
        xs, xsd, w, vecs, rd_mat, rd_vec, mu = (st[key] for key in (
            "xs", "xsd", "w", "vecs", "rd_mat", "rd_vec", "mu"))
        x, xd, sd = xs[:, 0], xsd[:, 0], xsd[:, 1]
        flat = xs.reshape(-1, n, n)         # X and S of each lane, interleaved
        r_xs = _inv_factor(flat)            # their inverse factors
        x_s_inv = np.empty_like(xs)         # X and S^-1, for one gram call
        x_s_inv[:, 0] = x
        s_inv = np.matmul(r_xs[1::2].conj().swapaxes(-1, -2), r_xs[1::2], out=x_s_inv[:, 1])
        sd_inv = 1.0 / sd
        grams = basis.gram(x_s_inv)
        big_m = 0.5 * (w.swapaxes(-1, -2)
                       @ (grams[:, 0] * grams[:, 1].swapaxes(-1, -2)).real @ w)
        big_m += (vecs * (xd * sd_inv)[:, None, :]) @ vecs.swapaxes(-1, -2)
        r_m = _inv_factor(0.5 * (big_m + big_m.swapaxes(-1, -2)))
        x_rd = x @ rd_mat

        def direction(taumu, h_mat, h_vec):
            tm_mat, tm_vec = taumu[:, None, None], taumu[:, None]
            g_mat = (tm_mat * eye - h_mat - x_rd) @ s_inv
            g_vec = (tm_vec - h_vec - xd * rd_vec) * sd_inv
            rhs = a_op(w, g_mat) - st["b"] + np.matvec(vecs, g_vec)
            dy = np.matvec(r_m.swapaxes(-1, -2), np.matvec(r_m, rhs))
            d_mat, d_vec = np.empty_like(xs), np.empty_like(xsd)
            ds_mat = np.add(0.5 * a_adj(w, dy), rd_mat, out=d_mat[:, 1])
            ds_vec = np.add(np.matvec(vecs.swapaxes(-1, -2), dy), rd_vec, out=d_vec[:, 1])
            dx_raw = tm_mat * s_inv - x - (h_mat + x @ ds_mat) @ s_inv
            np.multiply(0.5, dx_raw + dx_raw.conj().swapaxes(-1, -2), out=d_mat[:, 0])
            np.subtract((tm_vec - h_vec - xd * ds_vec) * sd_inv, xd, out=d_vec[:, 0])
            return d_mat, d_vec, dy

        def max_steps(d_mat, d_vec, caps):
            """The (X, S) fraction-to-boundary lengths, (lanes, 2); caps maps
            the (X, S) vector ratios to the screen caps."""
            ratio = np.where(d_vec < 0, -xsd / d_vec, np.inf).min(axis=-1, initial=np.inf)
            t = _boundary_steps(flat, d_mat.reshape(flat.shape), ratio.ravel(),
                                caps(ratio).ravel(), r_xs)
            return t.reshape(ratio.shape)

        da_mat, da_vec, _ = direction(np.zeros(len(mu)), 0.0, 0.0)
        aff = np.minimum(1.0, max_steps(da_mat, da_vec, lambda r: np.minimum(1.0, r)))
        trial, trial_d = xs + aff[:, :, None, None] * da_mat, xsd + aff[:, :, None] * da_vec
        mu_aff = (2.0 * _dot(trial[:, 0], trial[:, 1])
                  + np.vecdot(trial_d[:, 0], trial_d[:, 1])) / nu
        # Python's float power (libm's pow): numpy's vectorized power differs
        # from it in the last bit of some values
        sigma = np.array([min(1.0, max(0.0, r ** 3)) for r in (mu_aff / mu).tolist()])
        d_mat, d_vec, dy = direction(sigma * mu, da_mat[:, 0] @ da_mat[:, 1],
                                     da_vec[:, 0] * da_vec[:, 1])
        t = max_steps(d_mat, d_vec, lambda r: np.minimum(top, np.minimum(r, r[:, ::-1])))
        return d_mat, d_vec, dy, np.minimum(1.0, _STEP_FRACTION * t.min(axis=-1))

    it = 0
    for it in range(1, _MAX_ITERATIONS + 1):
        xs, xsd, y, w, vecs, b = (st[key] for key in ("xs", "xsd", "y", "w", "vecs", "b"))
        x, s, xd, sd = xs[:, 0], xs[:, 1], xsd[:, 0], xsd[:, 1]
        gap = 2.0 * _dot(x, s) + np.vecdot(xd, sd)
        ny = np.sqrt(np.vecdot(y, y))
        finite = (np.isfinite(xs).all(axis=(1, 2, 3)) & np.isfinite(xsd).all(axis=(1, 2))
                  & np.isfinite(y).all(axis=1))
        rp = b - (a_op(w, x) + np.matvec(vecs, xd))
        ys_mat = 0.5 * a_adj(w, y)
        ys_vec = np.matvec(vecs.swapaxes(-1, -2), y)
        rd_mat = ys_mat - s - st["half_c"]
        rd_vec = ys_vec - sd
        pobj = 2.0 * _dot(st["half_c"], x)
        dobj = np.vecdot(b, y)
        pres = np.sqrt(np.vecdot(rp, rp)) / st["scale_b"]
        dres = (np.sqrt(2.0 * _dot(rd_mat, rd_mat) + np.vecdot(rd_vec, rd_vec))
                / st["scale_c"])
        abs_pobj = np.abs(pobj)
        relgap = gap / (1.0 + abs_pobj + np.abs(dobj))
        resid = np.maximum(pres, dres)
        broken = (gap > 1e100) | (abs_pobj > 1e100)
        if not finite.all():
            relgap, resid = np.where(finite, relgap, np.inf), np.where(finite, resid, np.inf)
            broken |= ~finite
        optimal = (resid <= tol) & (relgap <= tol)
        # Farkas test: A*(y) >= 0 with b.y < 0 certifies primal infeasibility.
        stop = optimal | broken
        farkas = ~stop & (ny > 1e-12) & (dobj / ny < -1e-6) if (dobj < 0).any() else None
        if farkas is not None and farkas.any():
            low = np.minimum(_lapack("eigvalsh_lo", ys_mat[farkas]).min(axis=-1),
                             ys_vec[farkas].min(axis=-1, initial=np.inf))
            stop[farkas] = low / ny[farkas] >= -1e-9     # infeasible
        st.update(rd_mat=rd_mat, rd_vec=rd_vec, mu=gap / nu, relgap=relgap, resid=resid)
        if stop.any():
            freeze(np.where(optimal, opt, np.where(broken, brk, np.where(stop, infeas, -1))), it)
            if not live.size:
                break

        out = newton()
        usable = (np.isfinite(out[0]).all(axis=(1, 2, 3)) & np.isfinite(out[2]).all(axis=1)
                  & ~(out[3] < 1e-10))
        if not usable.all():
            freeze(np.where(usable, -1, brk), it)
            if not live.size:
                break
            out = [val[usable] for val in out]
        d_mat, d_vec, dy, step = out
        t = st["xs"] + step[:, None, None, None] * d_mat
        st["xs"] = 0.5 * (t + t.conj().swapaxes(-1, -2))
        st["xsd"] = st["xsd"] + step[:, None, None] * d_vec
        st["y"] = st["y"] + step[:, None] * dy
    if live.size:
        freeze(np.full(live.size, cap), it)
    return done


def _stack_width(n: int) -> int:
    """Lanes per `_ipm` stack of n x n matrices."""
    return max(1, _STACK_ENTRIES // n ** 2)


def _solve_stack(basis: _Basis, gram2, cfg: SolverConfig, w, vecs, b, c_w) -> list:
    """The SdpSolution of every lane of one stack: rows and objective
    equilibrated, one lockstep `_ipm` call, the scales undone."""
    sols = []
    with np.errstate(all="ignore"):
        row_scale = np.maximum(_embedded_norms(gram2, w, vecs), 1e-300)
        c_scale = _embedded_norms(gram2, c_w[:, :, None])[:, 0]
        c_scale[c_scale < 1e-18] = 1.0
        done = _ipm(basis, gram2, w / row_scale[:, None, :], vecs / row_scale[..., None],
                    b / row_scale, c_w / c_scale[:, None], cfg)
        for (x, y, status, iters, relgap, resid, pobj), c_s, row_s in zip(
                done, c_scale.tolist(), row_scale):
            dual = y * c_s / row_s
            if not (np.isfinite(row_s).all() and np.isfinite(dual).all()):
                status, relgap, resid = SdpStatus.BREAKDOWN, math.nan, math.nan
                dual = np.full_like(dual, math.nan)
            # x views the stack of lanes frozen with it; a copy keeps no stack alive
            sols.append(SdpSolution(x.copy(), pobj * c_s, status, relgap, resid, iters, dual))
    return sols


def solve_batch(batch: SdpBatch, config: SolverConfig | None = None) -> list:
    """The SdpSolution of every lane, solved by lockstep `_ipm` calls of up
    to `_stack_width` lanes in the calling process, each stack equilibrated
    (rows and objective) and turned into solutions by itself; each lane is
    bitwise what it gives alone, whichever stack it rides in. OPTIMAL means
    gap and residuals below the tolerance; MAX_ITERATIONS (the iteration cap)
    and BREAKDOWN (a numerical failure before it, with NaN multipliers, gap
    and residual if a scale or multiplier is not finite) never are. Finite
    multipliers give a weak-duality bound whatever the status."""
    cfg = config or SolverConfig()
    f = np.asarray(batch.basis, dtype=complex)
    lanes, m, _ = np.shape(batch.rows)
    sense = np.asarray(batch.sense)
    slack = np.flatnonzero(sense)                 # one slack column per inequality row
    vecs = np.zeros((lanes, m, slack.size))
    vecs[:, slack, np.arange(slack.size)] = sense[slack]

    basis, gram2 = _Basis(f), np.abs(f.conj().T @ f) ** 2
    w = np.ascontiguousarray(np.swapaxes(batch.rows, -1, -2), dtype=float)
    c_w, b = np.ascontiguousarray(batch.objective, dtype=float), np.asarray(batch.bounds, float)
    sols = []
    width = _stack_width(f.shape[0])
    for at in range(0, lanes, width):
        stack = slice(at, at + width)
        sols += _solve_stack(basis, gram2, cfg, w[stack], vecs[stack], b[stack], c_w[stack])
    return sols


def _unit_phase(z: np.ndarray) -> np.ndarray:
    """z / |z| in place, 1 where |z| is not positive (zero or NaN); returns z."""
    mag = np.abs(z)
    np.copyto(z, 1.0, where=~(mag > 0))
    return np.divide(z, mag, out=z, where=mag > 0)


def grp_draw(z_matrix: np.ndarray, candidates: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian randomization of a lifted covariance into phase vectors.

    Draws ``candidates`` vectors zt = U sqrt(Sigma) r with r ~ CN(0, I) from
    the eigendecomposition of z_matrix and maps each to a unit-modulus pattern
    via entrywise zt(i)/zt(N+1); returns them as a (batch, N) complex array.
    A draw ignores the eigenvalues below _RANK_TOL times the trace: r has one
    entry per eigenvalue above it, so a rank-r covariance consumes 2 r normals
    per candidate. If the input is rank one (second eigenvalue below
    _RANK_TOL times the trace) the batch is the single deterministic
    eigenvector extraction and no randomness is consumed. A non-finite
    covariance, or one whose kept eigenpairs give the lifted coordinate N+1 no
    variance, raises ValueError before any draw: no draw could be normalized.
    """
    return next(_grp_draws(np.asarray(z_matrix)[None], candidates, [rng]))


def _grp_draws(zs, candidates: int, rngs):
    """`grp_draw` of each covariance of the stack zs (L, size, size), as a generator of their
    batches in order: all checked (ValueError as in `grp_draw`) and eigendecomposed, each
    bitwise as alone, and the rank-one patterns made, before the first. Covariance l draws on
    rngs[l], a Generator or a function that makes one, called only when the draw takes
    normals, into arrays kept by rank: read its batch before the next draw."""
    if candidates < 1:
        raise ValueError("need at least one candidate")
    z = np.asarray(zs, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("input covariance must be finite")
    size = z.shape[-1]
    n_phase = size - 1
    lam, u = np.linalg.eigh(0.5 * (z + z.conj().swapaxes(-1, -2)))
    lam = np.clip(lam, 0.0, None)
    trace = lam.sum(axis=-1)
    if not (trace > 0).all():
        raise ValueError("input covariance has nonpositive trace")
    # eigh sorts ascending, so the kept eigenpairs are a trailing slice; the
    # slice keeps u's layout, and with it a full-rank draw's bits
    low = (lam <= _RANK_TOL * trace[:, None]).sum(axis=-1).tolist()
    lead = u[..., -1] * np.sqrt(lam[:, -1:])          # the top eigenpair's factor column
    one = ((np.array(low) == n_phase) & (size > 1)
           & (np.abs(lead[:, n_phase]) > 1e-9 * np.sqrt(trace)))
    patterns = iter(_unit_phase(lead[one, :n_phase] / lead[one, n_phase:]))
    factors = [None if one[l] else u[l][:, low[l]:] * np.sqrt(lam[l][low[l]:])
               for l in range(len(z))]
    if not all(factor[n_phase].any() for factor in factors if factor is not None):
        raise ValueError("input covariance gives the lifted coordinate no variance")
    work = {}
    for factor, rng in zip(factors, rngs):
        if factor is None:
            yield next(patterns)[None, :]
            continue
        rank = factor.shape[1]
        if rank not in work:
            work[rank] = (np.empty((2, rank, candidates)), np.empty((rank, candidates), complex),
                          np.empty((size, candidates), complex))
        normals, draw, zt = work[rank]
        rng = rng() if callable(rng) else rng
        draw.real, draw.imag = rng.standard_normal(out=normals)    # a real, then an imaginary draw
        np.matmul(factor, np.divide(draw, math.sqrt(2.0), out=draw), out=zt)
        batch = zt[:n_phase]
        yield _unit_phase(np.divide(batch, zt[n_phase], out=batch)).T


def _first_best(scores: np.ndarray) -> int:
    """The index of the first largest entry of scores, NaN ranked lowest."""
    real = np.flatnonzero(~np.isnan(scores))
    return int(real[np.argmax(scores[real])]) if real.size else 0


def grp_round(z_matrix: np.ndarray, candidates: int, score, rng: np.random.Generator):
    """The `grp_draw` candidate maximizing the caller's score, as (v, score).
    ``score`` maps a (batch, N) complex array to a (batch,) float array, else
    ValueError; ties go to the first candidate drawn; a NaN ranks below all."""
    batch = grp_draw(z_matrix, candidates, rng)
    scores = np.asarray(score(batch), dtype=float)
    if scores.shape != (len(batch),):
        raise ValueError("score must give one value per candidate")
    i = _first_best(scores)
    return batch[i].copy(), float(scores[i])


def substream(seed: int, *key) -> np.random.Generator:
    """Deterministic child generator for (seed, key), independent of ordering;
    the seed and each key an integer of at least 0 (a numpy integer too, a
    bool not), else ValueError."""
    for value in (seed, *key):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
            raise ValueError(f"seed and keys must be integers of at least 0, not {value!r}")
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))
