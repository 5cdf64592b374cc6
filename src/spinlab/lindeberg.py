"""Comparison laboratory for smooth statistics of disorder rows.

The object under study is E[exp(-h(J))] with h(z) = ||X z - b||^2 / 2 for a
kappa x N coefficient matrix X: a bounded smooth statistic of one disorder
row.  Swapping the row's entry law against the standard Gaussian moves this
expectation by at most

    C0 * sum_j (X^T X)_{jj}^{3/2} * (E|J|^3 + E|Z|^3),

a Lindeberg-style telescoping bound whose constant C0 comes from maximizing
e^{-r^2/2} (3 r + r^3) / 6.  Under the Gaussian row the expectation is a
determinant identity, under a Rademacher row it is a finite sum, and any
law can be estimated by Monte Carlo, so the bound is numerically
certifiable from three independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, GAUSSIAN, RADEMACHER
from .streams import CounterStream, derive_seed

__all__ = [
    "C0",
    "QuadraticForm",
    "h_eval",
    "lindeberg_bound",
    "GaussianExpectation",
    "gaussian_expectation_exact",
    "expectation_exact_discrete",
    "expectation_mc",
    "random_instance",
    "CertificateRow",
    "certificate_suite",
    "GaussianCheckRow",
    "gaussian_mc_check",
]

# C0 = (1/2) e^{-sqrt(3)/2} (3^{1/4} + 3^{-1/4}); 6*C0 = sup_r e^{-r^2/2}(3r + r^3)
C0 = 0.5 * math.exp(-math.sqrt(3.0) / 2.0) * (3.0**0.25 + 3.0**-0.25)

_KAPPA_MAX = 3  # instance shapes: kappa <= _KAPPA_MAX, N <= _N_MAX
_N_MAX = 12
_CERT_TOL = 1e-10  # rounding slack of the certificate and the Gaussian MC check
_Z_TOL = 4.0  # standard errors a Gaussian MC estimate may be off by
# expectation_mc sums over batches of this many samples; the grouping
# fixes the estimate's last bits
_MC_BATCH = 65536
_ENUM_LIMIT = 20
_ENUM_CHUNK = 1 << 16
# expectation_mc draws, evaluates and exponentiates about this many normals
# at a time, so no temporary reaches numpy's 4 MiB huge-page threshold
_MC_NORMALS = 32768
# Sub-batches hold a multiple of this many rows, and a last one never gets
# 1-3 rows of its own: numpy hands a one-row product to gemv or dot, and
# OpenBLAS's gemv computes the last (rows % 4) rows of a one-column product
# with another kernel, so other splits change bits of h_eval
_MC_ROW_GRAIN = 4


@dataclass(frozen=True)
class QuadraticForm:
    """Coefficients of h(z) = ||x_mat z - b_vec||^2 / 2."""

    x_mat: np.ndarray
    b_vec: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_mat, dtype=float)
        b = np.asarray(self.b_vec, dtype=float)
        if x.ndim != 2:
            raise ValueError("x_mat must be a kappa x N matrix")
        if b.shape != (x.shape[0],):
            raise ValueError(
                f"b_vec must have length {x.shape[0]}, got shape {b.shape}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        x.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "x_mat", x)
        object.__setattr__(self, "b_vec", b)

    @property
    def kappa(self) -> int:
        return self.x_mat.shape[0]

    @property
    def n(self) -> int:
        return self.x_mat.shape[1]


def h_eval(q: QuadraticForm, z) -> np.ndarray:
    """h(z) = ||X z - b||^2 / 2 for each row of a batch ``z`` of shape (B, N);
    one vector is a batch of one row."""
    za = np.asarray(z, dtype=float)
    if za.ndim != 2 or za.shape[1] != q.n:
        raise ValueError(f"z must be a batch of shape (B, {q.n}), got {za.shape}")
    r = za @ q.x_mat.T - q.b_vec
    return 0.5 * np.sum(r * r, axis=1)


def lindeberg_bound(q: QuadraticForm, law: DisorderLaw) -> float:
    """C0 sum_j (X^T X)_{jj}^{3/2} (E|J|^3 + E|Z|^3) for the given entry law."""
    third = law.third_abs_moment
    if third is None:
        raise ValueError(f"law {law.name!r} has no declared third absolute moment")
    col_sq = np.sum(q.x_mat * q.x_mat, axis=0)
    with np.errstate(over="ignore"):  # past the float range the bound is inf
        return float(C0 * (third + GAUSSIAN.third_abs_moment) * np.sum(col_sq**1.5))


@dataclass(frozen=True)
class GaussianExpectation:
    """Closed-form E[exp(-h(Z))] and its zero-argument lower bound.

    value = det(I + X X^T)^{-1/2} exp(-b^T (I + X X^T)^{-1} b / 2);
    lower = exp(-h(0)) det(I + X X^T)^{-1/2}, with equality iff b = 0.
    """

    value: float
    lower: float


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as math.fma (Python >= 3.13); int / int rounds once."""
    (na, da), (nb, db), (nc, dc) = (v.as_integer_ratio() for v in (a, b, c))
    return (na * nb * dc + nc * da * db) / (da * db * dc)


def _cho_solve(l: list, b: list) -> list:
    """Solve L L^T x = b for a lower Cholesky factor L, in Python floats.

    In OpenBLAS's dpotrs order, rows go in blocks of two.  A row takes each
    earlier block as a dot product accumulated by fma, then the earlier row
    of its block by one fma, then its pivot as a reciprocal.  The recorded
    lindeberg.csv digests pin this order: for kappa <= 3 it reproduces
    OpenBLAS's dpotrs bit for bit, and it runs no BLAS.
    """
    c = list(b)
    ahead = [range(i, min(i + 2, len(b))) for i in range(0, len(b), 2)]  # L y = b
    back = [blk[::-1] for blk in reversed(ahead)]  # L^T x = y
    for blocks, at in ((ahead, lambda r, j: l[r][j]), (back, lambda r, j: l[j][r])):
        for n, blk in enumerate(blocks):
            for m, r in enumerate(blk):
                for done in blocks[:n]:
                    acc = at(r, done[0]) * c[done[0]]
                    for j in done[1:]:
                        acc = _fma(at(r, j), c[j], acc)
                    c[r] -= acc
                for j in blk[:m]:
                    c[r] = _fma(-at(r, j), c[j], c[r])
                c[r] *= 1.0 / at(r, r)
    return c


def gaussian_expectation_exact(q: QuadraticForm) -> GaussianExpectation:
    """Evaluate the Gaussian-row expectation through the kappa x kappa Gram matrix."""
    sigma = q.x_mat @ q.x_mat.T
    chol = np.linalg.cholesky(np.eye(q.kappa) + sigma)
    # det(M) = prod diag(L)^2 for the Cholesky factor L
    half_logdet = float(np.sum(np.log(np.diag(chol))))
    quad = float(q.b_vec @ np.array(_cho_solve(chol.tolist(), q.b_vec.tolist())))
    value = math.exp(-half_logdet - 0.5 * quad)
    lower = math.exp(-0.5 * float(q.b_vec @ q.b_vec) - half_logdet)
    return GaussianExpectation(value, lower)


def expectation_exact_discrete(q: QuadraticForm) -> float:
    """E[exp(-h(J))] for a Rademacher row by full sign enumeration (N <= 20)."""
    if q.n > _ENUM_LIMIT:
        raise ValueError(f"enumeration supports N <= {_ENUM_LIMIT}, got {q.n}")
    total = 0.0
    count = 1 << q.n
    bits = np.arange(q.n, dtype=np.uint64)
    for start in range(0, count, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, count)
        codes = np.arange(start, stop, dtype=np.uint64)[:, None]
        signs = ((codes >> bits) & np.uint64(1)).astype(float) * 2.0 - 1.0
        total += float(np.sum(np.exp(-h_eval(q, signs))))
    return total / count


def _mc_batch(q: QuadraticForm, law: DisorderLaw, stream: CounterStream, first: int,
              e: np.ndarray) -> np.ndarray:
    """Fill ``e`` with exp(-h) of samples ``first .. first+len(e)-1``, sample
    k being ``law.values`` k*N .. k*N+N-1 of ``stream``, in sub-batches."""
    take = len(e)
    grain = _MC_ROW_GRAIN
    rows = max(grain, _MC_NORMALS // q.n // grain * grain)
    lo = 0
    while lo < take:
        hi = lo + rows if take - lo - rows >= grain else take
        z = law.values(stream, (first + lo) * q.n, (hi - lo) * q.n).reshape(hi - lo, q.n)
        h = h_eval(q, z)
        np.negative(h, out=h)
        np.exp(h, out=e[lo:hi])
        lo = hi
    return e


def expectation_mc(q: QuadraticForm, law: DisorderLaw, n_samples: int, seed: int):
    """Monte Carlo E[exp(-h(J))] under any entry law.

    Returns (estimate, standard_error).  Sample k is ``law.values`` k*N ..
    k*N+N-1 of the stream (``seed``, ``"disorder:lindeberg-mc"``), read
    by address, so no chunking changes a draw.  The sums run over batches
    of ``_MC_BATCH`` samples.  Inside a batch, draws, ``h_eval`` and
    ``exp`` run in sub-batches of about ``_MC_NORMALS`` normals, split so
    that they change no bit of the batch's values.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    stream = CounterStream(seed, "disorder:lindeberg-mc")
    e = np.empty(min(_MC_BATCH, n_samples))
    total = 0.0
    total_sq = 0.0
    for done in range(0, n_samples, _MC_BATCH):
        eb = _mc_batch(q, law, stream, done, e[: min(_MC_BATCH, n_samples - done)])
        total += float(np.sum(eb))
        total_sq += float(np.sum(eb * eb))
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def random_instance(
    master_seed: int,
    index: int,
    beta: float = 1.0,
    horizon: float = 2.0,
    s_bound: float = 2.0,
) -> QuadraticForm:
    """Instance ``index`` of the certificate family.

    Shapes kappa <= _KAPPA_MAX, N <= _N_MAX; entries of X are
    beta sqrt(horizon / (N kappa)) times uniforms in (-s, s), matching the
    scaling of the frozen-state coefficient rows, and b is standard normal.
    """
    key = derive_seed(master_seed, "lindeberg-instance", index)
    gen = np.random.Generator(np.random.Philox(key=key))
    kappa = int(gen.integers(1, _KAPPA_MAX + 1))
    n = int(gen.integers(1, _N_MAX + 1))
    scale = beta * math.sqrt(horizon / (n * kappa))
    x = scale * gen.uniform(-s_bound, s_bound, size=(kappa, n))
    b = gen.standard_normal(kappa)
    return QuadraticForm(x, b)


@dataclass(frozen=True)
class CertificateRow:
    """One certificate instance: both exact routes against the bound."""

    index: int
    seed: int
    kappa: int
    n: int
    discrete_value: float
    gaussian_value: float
    gaussian_lower: float
    abs_diff: float
    bound: float
    slack: float
    lower_ok: bool
    passed: bool


def certificate_suite(
    n_instances: int = 500,
    master_seed: int = 0,
    beta: float = 1.0,
    horizon: float = 2.0,
    s_bound: float = 2.0,
) -> list[CertificateRow]:
    """Certify the comparison bound on a family of random instances.

    Per instance: the bound must be finite, |E_rademacher[e^{-h}] -
    E_gaussian[e^{-h}]| must not exceed it by more than ``_CERT_TOL``, and
    the Gaussian value must dominate its determinant lower bound up to
    ``_CERT_TOL``.  Both expectations are exact (enumeration and closed
    form), so failures are real.
    """
    rows = []
    for idx in range(n_instances):
        q = random_instance(master_seed, idx, beta, horizon, s_bound)
        seed = derive_seed(master_seed, "lindeberg-instance", idx)
        disc = expectation_exact_discrete(q)
        gauss = gaussian_expectation_exact(q)
        bound = lindeberg_bound(q, RADEMACHER)
        diff = abs(disc - gauss.value)
        lower_ok = gauss.value >= gauss.lower - _CERT_TOL
        passed = (diff <= bound + _CERT_TOL) and lower_ok and math.isfinite(bound)
        rows.append(
            CertificateRow(
                idx, seed, q.kappa, q.n, disc, gauss.value, gauss.lower,
                diff, bound, bound - diff, lower_ok, passed,
            )
        )
    return rows


@dataclass(frozen=True)
class GaussianCheckRow:
    """Closed-form Gaussian value against a Monte Carlo estimate."""

    index: int
    seed: int
    kappa: int
    n: int
    exact: float
    mc_estimate: float
    mc_stderr: float
    z_score: float
    lower_ok: bool
    passed: bool


def gaussian_mc_check(
    n_instances: int = 50,
    n_samples: int = 1_000_000,
    master_seed: int = 0,
    beta: float = 1.0,
    horizon: float = 2.0,
    s_bound: float = 2.0,
) -> list[GaussianCheckRow]:
    """Cross-check the determinant identity against Gaussian Monte Carlo.

    Each instance must agree within ``_Z_TOL`` standard errors plus a
    rounding slack of ``_CERT_TOL`` times the exact value, and satisfy the
    determinant lower bound up to ``_CERT_TOL``; z counts the standard
    errors past the slack.
    """
    rows = []
    for idx in range(n_instances):
        q = random_instance(master_seed, idx, beta, horizon, s_bound)
        seed = derive_seed(master_seed, "lindeberg-mc", idx)
        exact = gaussian_expectation_exact(q)
        est, se = expectation_mc(q, GAUSSIAN, n_samples, seed)
        # rounding of a mean scales with it: the slack is relative, so an
        # estimate that underflowed to 0 still fails a tiny exact value
        excess = max(abs(est - exact.value) - _CERT_TOL * exact.value, 0.0)
        z = excess / se if se > 0 else 0.0 if excess == 0.0 else math.inf
        lower_ok = exact.value >= exact.lower - _CERT_TOL
        passed = (z <= _Z_TOL) and lower_ok
        rows.append(
            GaussianCheckRow(
                idx, seed, q.kappa, q.n, exact.value, est, se, z, lower_ok, passed
            )
        )
    return rows
