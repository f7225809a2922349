"""Bayesian demand filtering under censoring, plus rival-type beliefs.

The demand posterior is normal-inverse-gamma: coefficients | variance are
Gaussian with scale matrix S, and the noise variance is inverse-gamma(a, b).
Uncensored observations update in closed form (rank-one, order-invariant up
to batch equivalence). Censored observations are handled either by a single
truncated-normal imputation per record or by a Gibbs refresh over retained
history.

A Gibbs refresh runs up to a few hundred sweeps over a few dozen records,
so its censored rows are split out once per refresh (``_CensoredRows``) and
it draws the uniforms, normals (and variance gammas) of all its sweeps as
one block per refresh before the chain runs. Every latent, in a sweep or
in a single imputation, is one inverse-CDF draw in log space from one
uniform (Devroye 1986, section 2.1), exact however far into the tail its
bound (``ObservationRecord.bound``) lies, so a refresh draws exactly its
blocks. The known-variance refresh iterates only the latents'
standardized excess over their bounds, so its latents agree with
``truncated_normal_lower``'s only to rounding on the same uniforms. It
runs ``FIXED_CHAINS`` independent chains in lockstep: a sweep costs a few
numpy calls on arrays of a few dozen elements, so four chains cost little
more than one.

The refresh's coefficient moments are Rao-Blackwellised (Gelfand & Smith
1990; Liu, Wong & Kong 1994): the coefficients given a sweep's latents are
Gaussian in closed form, so the refresh averages those conditional moments
instead of the coefficient draws. That removes the draws' own noise from
``m`` and ``S``. What is left comes from the latents' spread and their
autocorrelation from sweep to sweep. Sweeps of independent chains are not
correlated with each other, so pooled chains reach a given error in fewer
sweeps each (``GIBBS_CHAIN``).

A refresh reads only the prior, the history and its own stream, never the
posterior it replaces. The simulation relies on this to refresh only when
the result is read: an update that a refresh in the same period would
replace unread is not run (``simharness.run_replication``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .market import DemandParams

__all__ = [
    "PosteriorHyper",
    "TypeBelief",
    "ObservationRecord",
    "PosteriorDegenerateError",
    "conjugate_update",
    "truncated_normal_lower",
    "sample_truncated_latent",
    "gibbs_refresh",
    "online_update",
    "update_type_belief",
    "posterior_mse",
]


class PosteriorDegenerateError(RuntimeError):
    """Posterior scale matrix lost positive definiteness beyond repair."""


def _ensure_pd(S: np.ndarray, jitter: float = 1e-10) -> np.ndarray:
    """Symmetrize and verify positive definiteness, with a jitter retry."""
    S = 0.5 * (S + S.T)
    if not np.all(np.isfinite(S)):
        # cholesky does not raise on NaN, so a NaN matrix would pass
        raise PosteriorDegenerateError("posterior scale matrix is not finite")
    try:
        np.linalg.cholesky(S)
        return S
    except np.linalg.LinAlgError:
        scale = max(np.trace(S) / S.shape[0], 1.0)
        for boost in (1.0, 1e3, 1e6):
            cand = S + jitter * boost * scale * np.eye(S.shape[0])
            try:
                np.linalg.cholesky(cand)
                return cand
            except np.linalg.LinAlgError:
                continue
    raise PosteriorDegenerateError("posterior scale matrix is not positive definite")


@dataclass
class PosteriorHyper:
    """Normal-inverse-gamma hyperparameters (m, S, a, b) and the noise
    convention. ``fixed_sd`` None: the noise sd is learned, S is the
    coefficients' scale matrix and updates move a and b. A value: the noise
    sd is known, S is the coefficients' covariance itself and a and b stay."""

    m: np.ndarray
    S: np.ndarray
    a: float
    b: float
    fixed_sd: float | None = None

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        self.S = _ensure_pd(np.asarray(self.S, dtype=float))
        if not (self.a > 0 and self.b > 0):
            raise ValueError("inverse-gamma shape and rate must be positive")
        if self.fixed_sd is not None and not self.fixed_sd > 0:
            raise ValueError("fixed_sd must be positive")

    def copy(self) -> "PosteriorHyper":
        return replace(self, m=self.m.copy(), S=self.S.copy())

    def noise_variance_mean(self) -> float:
        """Posterior mean of the noise variance (requires a > 1)."""
        if self.a <= 1:
            raise ValueError("noise variance mean undefined for a <= 1")
        return self.b / (self.a - 1.0)

    def noise_sd(self) -> float:
        """The known noise sd, else the root of the variance's posterior mean."""
        if self.fixed_sd is not None:
            return self.fixed_sd
        return float(np.sqrt(self.noise_variance_mean()))

    def update_denom(self, quad):
        """Rank-one update denominator at a covariate with x'Sx = ``quad``:
        1 + quad with the noise sd learned, sd^2 + quad with it known."""
        return 1.0 + quad if self.fixed_sd is None else self.fixed_sd**2 + quad

    def predictive_sd(self, quad):
        """Predictive demand sd at x'Sx = ``quad``, at the point noise sd:
        sd * sqrt(1 + quad) learned, sqrt(sd^2 + quad) known."""
        root = np.sqrt(self.update_denom(quad))
        return root if self.fixed_sd is not None else self.noise_sd() * root


@dataclass
class TypeBelief:
    """Discrete probability vector over the rival's type set."""

    probs: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if np.any(self.probs < -1e-15):
            raise ValueError("belief entries must be nonnegative")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("belief must sum to one")


@dataclass(frozen=True)
class ObservationRecord:
    """One firm-period demand observation for the filter."""

    covariate: np.ndarray
    sales: float
    stock: float
    censored: bool
    floored: bool = False  # zero sales without a stockout: latent demand <= 0

    @property
    def hidden(self) -> bool:
        """Whether the sales hide the demand (a stockout or a floored zero),
        so that an update of this record draws its latent demand."""
        return self.censored or self.floored

    @property
    def bound(self) -> tuple[float, float]:
        """The bound of a hidden record's latent demand: ``(s, l)`` with
        ``s * latent >= l``, ``(1, stock)`` after a stockout and
        ``(-1, -0.0)`` for a floored zero (latent demand at most zero)."""
        return (1.0, self.stock) if self.censored else (-1.0, -0.0)


def conjugate_update(hyper: PosteriorHyper, covariate: np.ndarray,
                     demand: float) -> PosteriorHyper:
    """Exact one-observation posterior update.

    With the noise sd learned, the normal-inverse-gamma recursion (rank-one
    update of S, a += 1/2, b += scaled squared residual / 2). With it known
    (``hyper.fixed_sd``), the Gaussian recursion of the coefficient
    covariance S; the inverse-gamma component is left untouched.
    """
    x = np.asarray(covariate, dtype=float)
    y = float(demand)
    Sx = hyper.S @ x
    resid = y - float(x @ hyper.m)
    denom = hyper.update_denom(float(x @ Sx))
    a, b = hyper.a, hyper.b
    if hyper.fixed_sd is None:
        a, b = a + 0.5, b + 0.5 * resid * resid / denom
    m = hyper.m + Sx * (resid / denom)
    S = hyper.S - np.outer(Sx, Sx) / denom
    return PosteriorHyper(m, S, a, b, hyper.fixed_sd)


def _upper_tail_quantile(neg_alpha, log_u):
    """Standard normal quantile ``z >= -neg_alpha`` at upper-tail mass
    ``u * ndtr(neg_alpha)``, given ``log u`` for uniforms ``u`` in (0, 1].
    In log space it is exact at every cut; ``ndtr`` underflows past 37.5 sd."""
    # scipy.special is imported on first use: importing it takes ~0.3 s and
    # slows interpreter shutdown, and ``crgame equilibrium`` never needs it
    from scipy.special import log_ndtr, ndtri_exp
    return -ndtri_exp(log_u + log_ndtr(neg_alpha))


def truncated_normal_lower(mean, sd, lower, rng: np.random.Generator):
    """Draw from Normal(mean, sd^2) restricted to [lower, inf).

    Vectorized inverse CDF, one uniform per element, at any cut; lower =
    -inf gives an untruncated normal draw. Scalars in, scalar out.
    """
    mean, sd, lower = np.broadcast_arrays(np.asarray(mean, dtype=float),
                                          np.asarray(sd, dtype=float),
                                          np.asarray(lower, dtype=float))
    log_u = np.log(1.0 - rng.random(mean.shape))  # u in (0, 1]
    out = np.maximum(
        mean + sd * _upper_tail_quantile((mean - lower) / sd, log_u), lower)
    return float(out) if out.ndim == 0 else out


def sample_truncated_latent(hyper: PosteriorHyper, record: ObservationRecord,
                            rng: np.random.Generator) -> float:
    """One posterior-predictive draw of a hidden record's latent demand past
    its ``bound``, at the posterior's point noise sd: at least the stock
    after a stockout, at most zero for a floored zero."""
    x = np.asarray(record.covariate, dtype=float)
    sign, lower = record.bound
    mean = float(x @ hyper.m)
    sd = hyper.predictive_sd(float(x @ hyper.S @ x))
    return sign * truncated_normal_lower(sign * mean, sd, lower, rng)


# Burn-in and kept sweeps of each chain of a refresh, by noise mode: the
# simulation's chains. The known-variance refresh runs FIXED_CHAINS chains,
# 200 kept sweeps in all; the learned-variance one runs one chain, which
# mixes more slowly. At these lengths every coefficient's Monte Carlo error
# measured below that of one chain of 100 burn-in + 300 sweeps averaging
# the coefficient draws (``test_gibbs_refresh_monte_carlo_error``).
GIBBS_CHAIN = {"fixed": (25, 50), "learn": (50, 250)}
FIXED_CHAINS = 4


def gibbs_refresh(prior: PosteriorHyper, history: list[ObservationRecord],
                  rng: np.random.Generator, sweeps: int | None = None,
                  burn_in: int | None = None) -> PosteriorHyper:
    """Data-augmentation Gibbs over the full history, moment-matched back to
    normal-inverse-gamma hyperparameters.

    Sweep: impute censored latents from their truncated-normal conditional,
    draw coefficients given the variance, draw the variance given the
    coefficients. The coefficient moments are Rao-Blackwellised: each kept
    sweep contributes the exact mean and covariance of the coefficients
    given its latents (and variance), not its coefficient draw, so with no
    censored records ``m`` is the batch conjugate posterior mean.
    A prior with a known noise sd (``prior.fixed_sd``: S is the literal
    coefficient covariance and the inverse-gamma component is left
    untouched) runs ``FIXED_CHAINS`` chains of ``burn_in`` + ``sweeps``
    each. ``sweeps`` and ``burn_in`` left ``None`` take the ``GIBBS_CHAIN``
    lengths.
    """
    chain = GIBBS_CHAIN["learn" if prior.fixed_sd is None else "fixed"]
    burn_in = chain[0] if burn_in is None else burn_in
    sweeps = chain[1] if sweeps is None else sweeps
    if sweeps < 2:
        raise ValueError("sweeps must be >= 2")
    if not history:
        return prior.copy()
    if prior.fixed_sd is not None:
        return _gibbs_refresh_fixed(prior, history, sweeps, rng, burn_in)

    X, y, cens = _history_arrays(history)
    n, p = X.shape
    k, N = len(cens.rows), burn_in + sweeps

    S0_inv = np.linalg.inv(prior.S)
    S0_inv_m0 = S0_inv @ prior.m
    Sn = np.linalg.inv(S0_inv + X.T @ X)
    Ln = np.linalg.cholesky(Sn)
    m0, b0, shape = prior.m, prior.b, prior.a + 0.5 * (n + p)

    # one block of variates per refresh, drawn before the chain runs
    log_U = np.log(1.0 - rng.random((N, k)))  # logs of uniforms in (0, 1]
    Z = rng.standard_normal((N, p))
    G = rng.gamma(shape, size=N)

    psi = m0.copy()
    sigma2 = np.empty(N + 1)  # the variance path, from the prior mode
    sigma2[0] = b0 / (prior.a + 1.0)
    lat_draws = np.empty((N, k))
    latent = y.copy()
    XT, rows, SX, lower, sign = X.T, cens.rows, cens.SX, cens.lower, cens.sign
    for it in range(N):
        sd = np.sqrt(sigma2[it])
        e = cens.excess((SX @ psi - lower) / sd, log_U[it])
        latent[rows] = lat_draws[it] = sign * (lower + sd * e)
        psi = Sn @ (S0_inv_m0 + XT @ latent) + sd * (Ln @ Z[it])
        resid = latent - X @ psi
        dev = psi - m0
        quad = float(resid @ resid + dev @ S0_inv @ dev)
        sigma2[it + 1] = (b0 + 0.5 * quad) / G[it]

    # psi | latent, sigma2 ~ N(Sn (S0^-1 m0 + X' latent), sigma2 Sn): average
    # the conditional moments; the mean's spread comes from the k rows only
    kept = lat_draws[burn_in:]
    latent[rows] = kept.mean(axis=0)
    m = Sn @ (S0_inv_m0 + XT @ latent)
    Gx = Sn @ X[rows].T
    coef_cov = Gx @ _cov_rows(kept) @ Gx.T + sigma2[burn_in:N].mean() * Sn
    var_draws = sigma2[burn_in + 1:]
    v_mean = var_draws.mean()
    v_var = var_draws.var(ddof=1)
    if v_var > 0:
        a = v_mean**2 / v_var + 2.0
        b = v_mean * (a - 1.0)
    else:
        a, b = prior.a + 0.5 * n, v_mean * (prior.a + 0.5 * n - 1.0)
    return PosteriorHyper(m, coef_cov / v_mean, a, b)


def _cov_rows(D: np.ndarray) -> np.ndarray:
    """Sample covariance (ddof 1) of the rows of ``D``, shape (k, k) for
    every k, which ``np.cov`` is not for k = 1."""
    D = D - D.mean(axis=0)
    return D.T @ D / (len(D) - 1)


class _CensoredRows:
    """The censored (stockout) and floored (zero-sales) rows of a history,
    split out once per Gibbs refresh, and the draw of their latents.

    Each row has the record's ``bound``: a sign ``s`` and a lower bound
    ``l`` with ``s * latent >= l``. The chains carry a row's latent as its
    standardized excess ``e = (s * latent - l) / sd >= 0``. Stockouts come
    before floored zeros, so each row keeps its column of the refresh's
    uniforms.
    """

    def __init__(self, X: np.ndarray, history: list[ObservationRecord]):
        rows = sorted((i for i, r in enumerate(history) if r.hidden),
                      key=lambda i: not history[i].censored)
        self.rows = np.array(rows, dtype=np.intp)
        bounds = [history[i].bound for i in rows]
        self.sign = np.array([sign for sign, _ in bounds])
        self.lower = np.array([lower for _, lower in bounds])
        self.SX = self.sign[:, None] * X[self.rows]

    @staticmethod
    def excess(neg_alpha: np.ndarray, log_u: np.ndarray) -> np.ndarray:
        """Standardized excess of the rows' latents over their bounds: the
        inverse CDF of ``truncated_normal_lower`` given the logs ``log_u``
        of uniforms in (0, 1]. ``neg_alpha`` is ``(s * mean - l) / sd`` per
        row (last axis; a leading axis holds chains)."""
        return np.maximum(neg_alpha + _upper_tail_quantile(neg_alpha, log_u),
                          0.0)


def _history_arrays(history: list[ObservationRecord]):
    X = np.stack([np.asarray(r.covariate, dtype=float) for r in history])
    y = np.array([r.sales for r in history], dtype=float)
    return X, y, _CensoredRows(X, history)


def _gibbs_refresh_fixed(prior: PosteriorHyper, history: list[ObservationRecord],
                         sweeps: int, rng: np.random.Generator,
                         burn_in: int) -> PosteriorHyper:
    """Known-variance data-augmentation chains; only coefficients are
    latent.

    With ``y0`` the sales with the k censored and floored rows zeroed, the
    coefficients given a sweep's standardized excess ``e`` of those rows
    are ``N(base + sd * Gs @ e, Sn)``, and a sweep draws them with the
    normals ``z`` as ``base + sd * Gs @ e + Ln @ z``. So each chain iterates
    only ``e`` (through the next sweep's ``-alpha``, linear in ``e`` and
    ``z``), and the refresh averages the conditional moments over the kept
    sweeps of all ``FIXED_CHAINS`` chains, never forming a coefficient
    draw. The chains start at the prior mean and share each sweep's numpy
    calls.
    """
    X, y, cens = _history_arrays(history)
    n, p = X.shape
    k, N, C = len(cens.rows), burn_in + sweeps, FIXED_CHAINS
    noise_sd = prior.fixed_sd
    s2 = noise_sd**2

    S0_inv = np.linalg.inv(prior.S)
    Sn = np.linalg.inv(S0_inv + X.T @ X / s2)
    Ln = np.linalg.cholesky(Sn)
    SX, lower = cens.SX, cens.lower
    Gs = Sn @ SX.T / s2
    y0 = y.copy()
    y0[cens.rows] = 0.0
    base = Sn @ (S0_inv @ prior.m + X.T @ y0 / s2) + Gs @ lower

    # one block of variates per refresh, drawn before the chains run
    log_U = np.log(1.0 - rng.random((N, C, k)))  # logs of uniforms in (0, 1]
    Z = rng.standard_normal((N, C, p))

    # -alpha of a chain's next sweep is c + A @ e + B @ z; cz holds c + B @ z
    cz = (SX @ base - lower) / noise_sd + Z @ (SX @ Ln).T / noise_sd
    At = (SX @ Gs).T
    neg_alpha = np.broadcast_to((SX @ prior.m - lower) / noise_sd, (C, k))
    E = np.empty((N, C, k))
    excess = cens.excess
    for it in range(N):
        E[it] = excess(neg_alpha, log_U[it])
        neg_alpha = cz[it] + E[it] @ At

    # psi | e ~ N(base + sd Gs e, Sn): average the conditional moments
    E = E[burn_in:].reshape(C * sweeps, k)
    m = base + noise_sd * (Gs @ E.mean(axis=0))
    S = Sn + s2 * (Gs @ _cov_rows(E) @ Gs.T)
    return replace(prior, m=m, S=S)


def online_update(hyper: PosteriorHyper, record: ObservationRecord,
                  rng: np.random.Generator | None,
                  mode: str = "single-imputation",
                  prior: PosteriorHyper | None = None,
                  history: list[ObservationRecord] | None = None
                  ) -> PosteriorHyper:
    """Per-period posterior recursion.

    Uncensored records take the exact conjugate path. Censored (stockout)
    and floored (zero-sales) records are either handled by one
    truncated-normal imputation at the current posterior predictive
    (default) or by a Gibbs refresh over the retained history at
    ``GIBBS_CHAIN``'s lengths (``mode='gibbs-every-period'``, requires
    ``prior`` + ``history`` including the new record). Only a ``hidden``
    record draws, so the conjugate path takes ``rng`` None.
    """
    if not record.hidden:
        return conjugate_update(hyper, record.covariate, record.sales)
    if mode == "single-imputation":
        latent = sample_truncated_latent(hyper, record, rng)
        return conjugate_update(hyper, record.covariate, latent)
    if mode == "gibbs-every-period":
        if prior is None or history is None:
            raise ValueError("gibbs mode needs the original prior and full history")
        return gibbs_refresh(prior, history, rng)
    raise ValueError(f"unknown online update mode {mode!r}")


def update_type_belief(belief: TypeBelief, likelihood) -> TypeBelief:
    """Pointwise Bayes update of the rival-type belief.

    ``likelihood`` is the per-type likelihood vector of the observed rival
    action. An all-zero likelihood (degenerate evidence) returns the prior
    unchanged with the degenerate flag set.
    """
    like = np.asarray(likelihood, dtype=float)
    if like.shape != belief.probs.shape:
        raise ValueError("likelihood vector does not match belief support")
    if np.any(like < 0):
        raise ValueError("likelihoods must be nonnegative")
    post = belief.probs * like
    total = post.sum()
    if total <= 0.0:
        return TypeBelief(belief.probs.copy(), degenerate=True)
    return TypeBelief(post / total)


def posterior_mse(hyper: PosteriorHyper, truth: DemandParams) -> float:
    """Mean squared deviation of the coefficient posterior mean from truth."""
    diff = hyper.m - truth.coefficients()
    return float(np.mean(diff * diff))
