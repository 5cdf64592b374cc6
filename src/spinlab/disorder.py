"""Quenched disorder: entry laws, matrix sampling, spectral diagnostics.

Interaction matrices J have i.i.d. entries with mean 0 and variance 1.  The
amount of heavy-tailedness allowed is controlled by three conditions checked
here: a uniform bound on the normalized log moment generating function, a
third-moment growth bound, and boundedness of the scaled operator norm
N^{-1/2} ||J||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import NumericalFailure
from .streams import CounterStream, _box_muller, _unit_open, derive_seed

__all__ = [
    "DisorderLaw",
    "StandardGaussian",
    "Rademacher",
    "CenteredExponential",
    "CustomSampler",
    "GAUSSIAN",
    "RADEMACHER",
    "CENTERED_EXPONENTIAL",
    "DisorderMatrix",
    "sample_matrix",
    "operator_norm_report",
    "operator_norm_reports",
    "PowerIterationReport",
    "PowerIterationError",
    "LawReport",
    "validate_law",
    "ConditionDiagnostics",
    "condition_diagnostics",
]

_DISORDER_PURPOSE = "disorder"


class DisorderLaw:
    """Base class for entry laws.

    Subclasses provide analytic moments where available (``None`` means
    unknown) and one word-to-value transform, ``_from_words``, that turns
    ``words_per_value * count`` raw stream words along the last axis into
    ``count`` draws.
    Built-in laws sample through counter addressed streams, so entry (i, j)
    of a matrix is a pure function of (law, seed, i, j).
    """

    name: str = "abstract"
    mean: float | None = None
    variance: float | None = None
    third_abs_moment: float | None = None
    words_per_value: int = 1

    def mgf(self, theta: float) -> float | None:
        """E[exp(theta J)], or None when not analytically known."""
        return None

    def exp_abs_moment(self, eps: float) -> float | None:
        """E[exp(eps |J|)], or None when not analytically known."""
        return None

    def _from_words(self, words: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sampler_state(self, seed: int, purpose: str = "draws"):
        """Opaque state for sequential deterministic draws under ``seed``."""
        return [CounterStream(seed, f"{_DISORDER_PURPOSE}:{purpose}"), 0]

    def draw(self, state, count: int) -> np.ndarray:
        """Next ``count`` draws; built-ins are word addressed so every draw
        is independent of chunking."""
        stream, cursor = state
        w = self.words_per_value
        out = self._from_words(stream.raw(0, w * cursor, w * count))
        state[1] = cursor + count
        return out


class StandardGaussian(DisorderLaw):
    name = "gaussian"
    mean = 0.0
    variance = 1.0
    third_abs_moment = math.sqrt(8.0 / math.pi)
    words_per_value = 2  # Box-Muller: value v takes words 2v, 2v+1

    def mgf(self, theta):
        return math.exp(0.5 * theta * theta)

    def exp_abs_moment(self, eps):
        # Phi(eps) = erfc(-eps / sqrt 2) / 2
        return math.exp(0.5 * eps * eps) * math.erfc(-eps / math.sqrt(2.0))

    def _from_words(self, words):
        return _box_muller(words[..., 0::2], words[..., 1::2])


class Rademacher(DisorderLaw):
    name = "rademacher"
    mean = 0.0
    variance = 1.0
    third_abs_moment = 1.0

    def mgf(self, theta):
        return math.cosh(theta)

    def exp_abs_moment(self, eps):
        return math.exp(eps)

    def _from_words(self, words):
        return np.where(words >> np.uint64(63), 1.0, -1.0)


class CenteredExponential(DisorderLaw):
    """Exp(1) - 1: mean 0, variance 1, skewed with a one-sided heavy-ish tail."""

    name = "cexp"
    mean = 0.0
    variance = 1.0
    third_abs_moment = 12.0 / math.e - 2.0

    def mgf(self, theta):
        if theta >= 1.0:
            return math.inf
        return math.exp(-theta) / (1.0 - theta)

    def exp_abs_moment(self, eps):
        if eps >= 1.0:
            return math.inf
        return (
            math.exp(eps) * (1.0 - math.exp(-(1.0 + eps))) / (1.0 + eps)
            + math.exp(-1.0) / (1.0 - eps)
        )

    def _from_words(self, words):
        return -np.log(_unit_open(words)) - 1.0


class CustomSampler(DisorderLaw):
    """User-supplied law with declared analytic moments.

    ``sampler(count, generator)`` must return ``count`` i.i.d. draws using
    only the given numpy Generator.  Draw sequences are deterministic given
    a seed, but entries are filled in row-major order rather than counter
    addressed, so single-entry isolation is not available for custom laws.
    Moments left as ``None`` are treated as unknown and validated
    empirically; the MGF and exponential moment are always unknown.
    """

    def __init__(
        self,
        name: str,
        sampler: Callable[[int, np.random.Generator], np.ndarray],
        mean: float | None = None,
        variance: float | None = None,
        third_abs_moment: float | None = None,
    ):
        self.name = name
        self._sampler = sampler
        self.mean = mean
        self.variance = variance
        self.third_abs_moment = third_abs_moment

    def sampler_state(self, seed: int, purpose: str = "draws"):
        child = derive_seed(seed, _DISORDER_PURPOSE, purpose, self.name)
        return np.random.Generator(np.random.Philox(key=child))

    def draw(self, state, count: int) -> np.ndarray:
        out = np.asarray(self._sampler(count, state), dtype=float)
        if out.shape != (count,):
            raise ValueError(
                f"custom sampler for {self.name!r} returned shape {out.shape}, "
                f"expected ({count},)"
            )
        return out


GAUSSIAN = StandardGaussian()
RADEMACHER = Rademacher()
CENTERED_EXPONENTIAL = CenteredExponential()


@dataclass(frozen=True)
class DisorderMatrix:
    """A sampled interaction matrix together with its provenance."""

    entries: np.ndarray
    law: DisorderLaw
    seed: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        if entries.flags.writeable:  # the caller may still hold and write it
            entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _aligned(shape) -> np.ndarray:
    """Empty float array of ``shape`` at a 64-byte boundary, for faster gemv."""
    raw = np.empty(math.prod(shape) + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + raw.size - 7].reshape(shape)


def sample_matrix(law: DisorderLaw, n: int, seed: int) -> DisorderMatrix:
    """Draw an n x n matrix of i.i.d. entries under ``law``.

    Built-in laws address entry (i, j) at (lane=i, word index derived from j)
    of a counter stream keyed by ``seed``, so any entry is recomputable in
    isolation and the result is independent of fill order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(law, CustomSampler):
        gen = law.sampler_state(seed, purpose="matrix")
        entries = law.draw(gen, n * n).reshape(n, n)
    else:
        stream = CounterStream(seed, _DISORDER_PURPOSE)
        entries = law._from_words(stream.raw_lanes(n, law.words_per_value * n))
        entries.flags.writeable = False  # fresh, so DisorderMatrix need not copy it
    return DisorderMatrix(entries, law, int(seed))


class PowerIterationError(NumericalFailure):
    """Iteration cap hit; ``best`` carries the last (value, residual) pair.

    ``member`` is the index of the failing matrix in the caller's list.
    """

    def __init__(self, message, best, member: int = 0):
        super().__init__(message, member)
        self.best = best


@dataclass(frozen=True)
class PowerIterationReport:
    """Norm estimate with its bracketing certificate.

    ``value = sqrt(rayleigh)`` is a lower bound on ||A|| by construction
    (it is ||A v|| for a unit vector v).  ``upper`` is sqrt(rayleigh +
    residual), valid as an upper bound once the iteration has locked onto
    the top eigenvalue of A^T A, which the residual stopping rule targets.
    """

    value: float
    lower: float
    upper: float
    residual: float
    iterations: int
    restarted: bool


def _as_interaction(mats, beta: float) -> np.ndarray:
    """The stack of (beta/sqrt(N)) J over same-size matrices, 64-byte aligned."""
    arr = np.stack([m.entries if isinstance(m, DisorderMatrix)
                    else np.asarray(m, dtype=float) for m in mats])
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("matrix must be square")
    return np.multiply(beta / math.sqrt(arr.shape[-1]), arr, out=_aligned(arr.shape))


# Bytes of raw matrices in one lockstep norm stack or harness integration
# block.  Past it, the stacked matmul runs slower than one matrix at a time.
_STACK_BYTES = 512 * 1024
# Smallest lockstep norm stack; where fewer fit, each matrix runs alone.  On
# the default config's 600 draws at N = 100, alone took 5.6-6.5 s and 6-member
# stacks 8.2-8.7 s; at N = 50, 26-member stacks won, 1.9-2.2 s to 2.4-2.9 s.
_LOCKSTEP_MIN = 8
# step cap of the power iteration, read at call time
_MAX_ITER = 200000
# a run whose Rayleigh quotient repeats this many steps in a row has stalled
_STALL_STEPS = 50


def _power_run(a, v, tol, budget, it=0, lam_prev=-1.0, stall=0, lam=0.0, resid=0.0):
    """Continue one power-iteration run on A^T A from the unit vector v,
    ``it`` of its ``budget`` steps done.

    Returns (lam, resid, steps, status): status True when the residual
    target is met, False on a stall, None at the budget (with the last
    step's lam and resid, or the ones passed in if no step was left).
    """
    # ndarray.dot makes @'s dgemv and ddot calls, and sqrt(x.dot(x)) is
    # numpy's own 2-norm of a real vector, bit for bit, with less dispatch
    at = a.T
    for it in range(it + 1, budget + 1):
        w = a.dot(v)
        lam = float(w.dot(w))
        u = at.dot(w)
        r = u - lam * v
        resid = math.sqrt(r.dot(r))
        if resid <= tol * lam:  # for a finite tol, also met at lam = resid = 0
            return lam, resid, it, True
        if abs(lam - lam_prev) <= 1e-15 * max(lam, 1e-300):
            stall += 1
            if stall >= _STALL_STEPS:
                return lam, resid, it, False
        else:
            stall = 0
        lam_prev = lam
        v = u / math.sqrt(u.dot(u))
    return lam, resid, budget, None


def _report(lam, resid, used, restarted) -> PowerIterationReport:
    value = math.sqrt(max(lam, 0.0))
    upper = math.sqrt(max(lam + resid, 0.0))
    return PowerIterationReport(value, value, upper, resid, used, restarted)


def _cap_error(lam, resid, member) -> PowerIterationError:
    best = (math.sqrt(max(lam, 0.0)), resid)
    return PowerIterationError(
        f"power iteration did not converge in {_MAX_ITER} steps "
        f"(best value {best[0]}, residual {best[1]})",
        best, member,
    )


def _lockstep(a, tol: float) -> list:
    """Power-iteration reports of every member of the interaction stack
    ``a``, with their iterations run in lockstep.

    Each member keeps its own Rayleigh quotient, stall count, step count
    and restart flag; a stalled member, or one whose quotient is 0,
    restarts from e1 in place, and a finished member leaves the stack
    (the stack is compacted only then); this bookkeeping runs only on a
    pass where a member leaves or restarts.  The last member left finishes
    in the scalar loop.  Every member takes one step per pass, so members
    still running reach the cap together; the PowerIterationError names
    the lowest of them as ``member``, its index in ``a``.
    """
    count, n = a.shape[:2]
    reports = [None] * count
    e1 = np.eye(1, n)[0]
    v = np.full((count, n), 1.0 / math.sqrt(n))  # the normalized all-ones start
    live = np.arange(count)
    lam_prev = np.full(count, -1.0)
    lam = resid = np.zeros(count)
    stall = np.zeros(count, dtype=int)
    start = np.zeros(count, dtype=int)  # step at which the current run began
    restarted = np.zeros(count, dtype=bool)
    at = a.transpose(0, 2, 1)
    step = 0
    # a finished member's u may be 0; its v is never read again
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(live) > 1 and step < _MAX_ITER:
            step += 1
            # stacked matmul and vecdot give each member the bits of its own
            # a.dot(v), w.dot(w) and a.T.dot(w) (pinned by a test)
            w = np.matmul(a, v[:, :, None])[:, :, 0]
            lam = np.vecdot(w, w)
            u = np.matmul(at, w[:, :, None])[:, :, 0]
            r = u - lam[:, None] * v
            resid = np.sqrt(np.vecdot(r, r))
            done = resid <= tol * lam
            stall = np.where(np.abs(lam - lam_prev) <= 1e-15 * np.maximum(lam, 1e-300),
                             stall + 1, 0)
            lam_prev = lam
            v = u / np.sqrt(np.vecdot(u, u))[:, None]
            if not done.any() and stall.max() < _STALL_STEPS:
                continue
            stalled = ~done & (stall >= _STALL_STEPS)
            restart = ~restarted & (stalled | (done & (lam == 0.0)))
            if restart.any():
                restarted |= restart
                start[restart] = step
                v[restart] = e1
                lam_prev = np.where(restart, -1.0, lam)
                stall[restart] = 0
            leave = (done | stalled) & ~restart
            if leave.any():
                for j in np.flatnonzero(leave):
                    reports[live[j]] = _report(float(lam[j]), float(resid[j]), step,
                                               bool(restarted[j]))
                keep = ~leave
                live, a, v, lam_prev, lam, resid, stall, start, restarted = (
                    arr[keep] for arr in (live, a, v, lam_prev, lam, resid, stall,
                                          start, restarted))
                at = a.transpose(0, 2, 1)
    if len(live) > 1:
        raise _cap_error(float(lam[0]), float(resid[0]), int(live[0]))
    if len(live) == 1:
        j = int(live[0])
        used, was_restarted = int(start[0]), bool(restarted[0])
        run_lam, run_resid, it, status = _power_run(
            a[0], v[0], tol, _MAX_ITER - used, step - used, float(lam_prev[0]),
            int(stall[0]), float(lam[0]), float(resid[0]))
        used += it
        if not was_restarted and (status is False or run_lam == 0.0):
            # stalled short of the target: one deterministic restart
            was_restarted = True
            run_lam, run_resid, it, status = _power_run(
                a[0], e1, tol, _MAX_ITER - used, lam=run_lam, resid=run_resid)
            used += it
        if status is None:
            raise _cap_error(run_lam, run_resid, j)
        reports[j] = _report(run_lam, run_resid, used, was_restarted)
    return reports


def operator_norm_reports(mats, beta: float = 1.0, tol: float = 1e-10) -> list:
    """``operator_norm_report`` of each of several same-size matrices, bit
    for bit.  The one norm entry point, it decides how they are normed:
    where at least ``_LOCKSTEP_MIN`` matrices fit in ``_STACK_BYTES`` (N up
    to 90), in lockstep stacks of as many as fit, in list order; elsewhere
    each alone through ``operator_norm_report``.  A PowerIterationError's
    ``member`` is the failing matrix's index in ``mats``.
    """
    mats = list(mats)
    n = len(getattr(mats[0], "entries", mats[0])) if mats else 1
    fit = _STACK_BYTES // (n * n * 8)
    stack = fit if fit >= _LOCKSTEP_MIN else 1
    reports = []
    for first in range(0, len(mats), stack):
        part = mats[first:first + stack]
        try:
            reports += (_lockstep(_as_interaction(part, beta), tol) if stack > 1
                        else [operator_norm_report(part[0], beta, tol)])
        except PowerIterationError as err:
            err.member += first
            raise
    return reports


def operator_norm_report(mat, beta: float = 1.0, tol: float = 1e-10) -> PowerIterationReport:
    """Spectral norm of A = (beta/sqrt(N)) J by power iteration on A^T A.

    Deterministic: starts from the normalized all-ones vector and restarts
    once from the first basis vector if the Rayleigh quotient stalls without
    meeting the residual target (which guards against starts orthogonal to
    the top singular subspace).  Raises PowerIterationError at the step cap
    (``_MAX_ITER``, 200000).
    """
    return _lockstep(_as_interaction([mat], beta), tol)[0]


@dataclass(frozen=True)
class LawReport:
    """Outcome of validate_law.

    ``failures`` maps each failed check (``mean-zero``, ``unit-variance``,
    ``finite-exponential-moment``, ``third-abs-moment``) to its list of
    reasons.  ``mean`` and ``variance`` are the declared values when the law
    was not sampled, else the sample's.
    """

    law: str
    empirical_only: bool
    mean: float
    variance: float
    third_abs_moment: float | None
    exp_moment_finite: bool | None
    failures: dict
    notes: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


_VALIDATE_DRAWS = 1_000_000
_VALIDATE_SEED = 414213562


def validate_law(law: DisorderLaw, n_draws: int = _VALIDATE_DRAWS, seed: int = _VALIDATE_SEED) -> LawReport:
    """Check mean 0, variance 1, and tail health for an entry law.

    Every declared mean and variance must equal its target, and a declared
    exponential moment E exp(eps |J|) must be finite at eps = 0.5 or 0.25.
    A law with any moment undeclared is also sampled: each declared moment,
    the third absolute one included, must agree with the sample within 5
    sigma, and an undeclared mean or variance must lie within 5 sigma of its
    target.  Those tolerances need a finite second moment, so overflowing
    sample moments, or a failed divergence probe, fail the variance and
    leave the mean unverifiable.  The probe: the median variance over
    disjoint batches must be stable across batch sizes; for an
    infinite-variance law it grows roughly linearly with the batch size (a
    Cauchy-type law fails here).
    """
    failures = {}

    def fail(check, reason):
        failures.setdefault(check, []).append(reason)

    exp_half = law.exp_abs_moment(0.5)
    exp_finite = None if exp_half is None else (
        math.isfinite(exp_half) or math.isfinite(law.exp_abs_moment(0.25)))
    if exp_finite is False:
        fail("finite-exponential-moment",
             "declared exponential moment infinite at eps = 0.5 and 0.25")
    # (check, moment, declared value, target); the third has no target
    moments = (("mean-zero", "mean", law.mean, 0.0),
               ("unit-variance", "variance", law.variance, 1.0),
               ("third-abs-moment", "third abs moment", law.third_abs_moment, None))
    for check, word, declared, target in moments:
        if None not in (declared, target) and declared != target:
            fail(check, f"declared {word} {declared} != {target:g}")

    mean, variance = law.mean, law.variance
    sampled = None in (law.mean, law.variance, law.third_abs_moment, exp_half)
    if not sampled:
        notes = ["analytic moments declared; no sampling performed"]
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an extreme tail overflows
            draws = law.draw(law.sampler_state(seed, purpose="validate"), n_draws)
            mean, variance = float(np.mean(draws)), float(np.var(draws))
            m4 = float(np.mean((draws - mean) ** 4))
            # divergence probe: median variance over disjoint batches is
            # scale-stable when the second moment is finite, but grows with
            # the batch size when it is not (nested prefixes are foolable by
            # a single early extreme draw)
            sizes = [m for m in (1_000, 10_000, 100_000) if n_draws // m >= 4]
            medians = [float(np.median(np.var(draws[: n_draws // m * m].reshape(-1, m),
                                              axis=1))) for m in sizes]
            cubes = np.abs(draws) ** 3
            sample = ((mean, math.sqrt(max(variance, 1e-300) / n_draws)),
                      (variance, math.sqrt(max(m4 - variance * variance, 0.0) / n_draws)),
                      (float(np.mean(cubes)), float(np.std(cubes)) / math.sqrt(n_draws)))
        spread = None
        if not (math.isfinite(variance) and math.isfinite(m4)):
            spread = (f"empirical moments overflow: mean {mean:.4g}, variance "
                      f"{variance:.4g}, fourth central moment {m4:.4g}")
        elif len(medians) >= 2 and medians[0] > 0 and medians[-1] / medians[0] > 10.0:
            spread = "second moment appears divergent: median batch variances " + ", ".join(
                f"{m}: {v:.4g}" for m, v in zip(sizes, medians))
        if spread is not None:
            fail("unit-variance", spread)
            fail("mean-zero", "mean unverifiable: no finite second moment leaves no CLT tolerance")
        else:
            for (check, word, declared, target), (emp, se) in zip(moments, sample):
                if declared is not None:
                    if abs(emp - declared) > 5 * se:
                        fail(check, f"declared {word} {declared} vs empirical {emp:.6g} "
                                    f"(> 5 sigma = {5 * se:.3g})")
                elif target is not None and abs(emp - target) > 5 * se:
                    fail(check, f"empirical {word} {emp:.6g} not within 5 sigma of {target:g}")
        notes = [f"empirical check on {n_draws} draws, seed {seed}"]
    if exp_half is None:
        notes.append("exponential moment undeclared; tail checked only via variance probe")

    return LawReport(law.name, sampled, mean, variance, law.third_abs_moment, exp_finite,
                     failures, tuple(notes))


@dataclass(frozen=True)
class ConditionDiagnostics:
    """Numerical values of the three disorder conditions.

    mgf_sup:  sup over a theta grid in (0, eps] of log E[e^{theta J}
              v e^{-theta J}] / theta^2 (None when the MGF is undeclared).
    third_moment_scaled:  n^{2-gamma} E|J|^3 (None when the moment is
              undeclared).
    norm_samples:  N^{-1/2} ||J|| over the supplied seeds.
    """

    n: int
    gamma: float
    eps: float
    mgf_sup: float | None
    third_moment_scaled: float | None
    norm_samples: tuple


# points of the theta grid behind ConditionDiagnostics.mgf_sup
_THETA_POINTS = 64


def condition_diagnostics(
    law: DisorderLaw,
    n: int,
    gamma: float = 2.25,
    eps: float = 1.0,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> ConditionDiagnostics:
    """Evaluate the moment growth diagnostics at matrix size ``n``."""
    if not 2.0 <= gamma < 2.5:
        raise ValueError("gamma must lie in [2, 5/2)")
    if not eps > 0:
        raise ValueError("eps must be > 0")

    thetas = np.linspace(eps / _THETA_POINTS, eps, _THETA_POINTS)
    vals = []
    for t in thetas.tolist():
        try:
            plus, minus = law.mgf(t), law.mgf(-t)
        except OverflowError:  # E e^{theta J} past the float range
            plus = minus = math.inf
        if plus is None or minus is None:
            vals = None
            break
        top = max(plus, minus)
        vals.append(math.inf if top == math.inf else math.log(top) / (t * t))
    mgf_sup = None if vals is None else float(np.max(vals))

    third = law.third_abs_moment
    third_scaled = None if third is None else float(n ** (2.0 - gamma) * third)

    reports = operator_norm_reports([sample_matrix(law, n, s) for s in seeds],
                                    beta=1.0, tol=1e-8)
    norms = tuple(report.value for report in reports)
    return ConditionDiagnostics(n, gamma, eps, mgf_sup, third_scaled, norms)
