"""Posterior recursion, truncated sampling, Gibbs augmentation, type beliefs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import log_ndtr, ndtri_exp
from scipy.stats import norm

from crgame import learning, rng as rngmod
from crgame.learning import (ObservationRecord, PosteriorHyper, TypeBelief,
                             conjugate_update, gibbs_refresh, online_update,
                             posterior_mse, sample_truncated_latent,
                             truncated_normal_lower, update_type_belief)
from crgame.market import DemandParams
from oracles import batch_conjugate_posterior

PRIOR_M = np.array([35.0, -2.0, 0.5, 3.0])
PRIOR_S = np.diag([100.0, 4.0, 4.0, 16.0])
TRUTH = DemandParams(45.0, -3.6, 1.2, 7.5, 4.5)


def make_prior(fixed_sd=None):
    return PosteriorHyper(PRIOR_M.copy(), PRIOR_S.copy(), 3.0, 40.5, fixed_sd)


def random_design(rng, n):
    prices = rng.uniform(8.0, 16.0, size=(n, 2))
    z = rng.random(n) < 0.3
    X = np.column_stack([np.ones(n), prices, z.astype(float)])
    beta = np.array([45.0, -3.6, 1.2, 7.5])
    y = X @ beta + rng.normal(0.0, 4.5, size=n)
    return X, y


# ---------------------------------------------------------------- conjugacy

def test_sequential_matches_batch_any_order():
    rng = rngmod.stream(11, "design")
    X, y = random_design(rng, 25)
    batch = batch_conjugate_posterior(make_prior(), X, y)
    for perm_seed in (0, 1, 2):
        order = rngmod.stream(11, "perm", perm_seed).permutation(len(y))
        hyper = make_prior()
        for i in order:
            hyper = conjugate_update(hyper, X[i], y[i])
        np.testing.assert_allclose(hyper.m, batch.m, atol=1e-8)
        np.testing.assert_allclose(hyper.S, batch.S, atol=1e-8)
        assert hyper.a == pytest.approx(batch.a)
        assert hyper.b == pytest.approx(batch.b, rel=1e-8)


@pytest.mark.parametrize("fixed_sd", [None, 4.5])
def test_batch_posterior_follows_the_prior_noise_convention(fixed_sd):
    X, y = random_design(rngmod.stream(12, "design"), 25)
    batch = batch_conjugate_posterior(make_prior(fixed_sd), X, y)
    hyper = make_prior(fixed_sd)
    for i in range(len(y)):
        hyper = conjugate_update(hyper, X[i], y[i])
    assert batch.fixed_sd == fixed_sd
    np.testing.assert_allclose(batch.m, hyper.m, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(batch.S, hyper.S, rtol=1e-10, atol=1e-10)
    assert batch.a == pytest.approx(hyper.a, rel=1e-10)
    assert batch.b == pytest.approx(hyper.b, rel=1e-10)
    if fixed_sd is not None:
        assert (batch.a, batch.b) == (3.0, 40.5)


def test_covariance_stays_positive_definite():
    rng = rngmod.stream(13, "pd")
    hyper = make_prior()
    for _ in range(10_000):
        x = np.array([1.0, rng.uniform(8, 16), rng.uniform(8, 16),
                      float(rng.random() < 0.5)])
        hyper = conjugate_update(hyper, x, rng.normal(20.0, 5.0))
    np.linalg.cholesky(hyper.S)  # raises if not positive definite
    np.testing.assert_allclose(hyper.S, hyper.S.T, atol=1e-10)


def test_fixed_noise_update_skips_inverse_gamma():
    hyper = make_prior(4.5)
    x = np.array([1.0, 10.0, 12.0, 0.0])
    updated = conjugate_update(hyper, x, 25.0)
    assert updated.a == hyper.a and updated.b == hyper.b
    assert updated.fixed_sd == 4.5
    # Kalman-style mean update under the literal-covariance convention
    Sx = hyper.S @ x
    denom = 4.5**2 + float(x @ Sx)
    resid = 25.0 - float(x @ hyper.m)
    np.testing.assert_allclose(updated.m, hyper.m + Sx * resid / denom,
                               atol=1e-12)


def test_posterior_mse_anchor():
    assert posterior_mse(make_prior(), TRUTH) == pytest.approx(30.8250,
                                                               abs=1e-9)


# -------------------------------------------------------- truncated normal

def test_truncated_sampler_moments_cut_at_mean():
    rng = rngmod.stream(17, "halfnormal")
    n = 200_000
    draws = truncated_normal_lower(np.full(n, 5.0), np.full(n, 2.0),
                                   np.full(n, 5.0), rng)
    want_mean = 5.0 + 2.0 * np.sqrt(2.0 / np.pi)
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - want_mean) < 3 * se


@pytest.mark.parametrize("case", range(10))
def test_truncated_sampler_analytic_moments(case):
    rng = rngmod.stream(19, "trip", case)
    mean = rng.uniform(-20, 20)
    sd = rng.uniform(0.5, 8.0)
    cut = mean + sd * rng.uniform(-2.5, 2.5)
    n = 100_000
    draws = truncated_normal_lower(np.full(n, mean), np.full(n, sd),
                                   np.full(n, cut), rng)
    alpha = (cut - mean) / sd
    lam = norm.pdf(alpha) / norm.sf(alpha)
    want_mean = mean + sd * lam
    want_var = sd**2 * (1.0 + alpha * lam - lam**2)
    se_mean = draws.std(ddof=1) / np.sqrt(n)
    assert draws.min() >= cut
    assert abs(draws.mean() - want_mean) < 3 * se_mean
    assert draws.var(ddof=1) == pytest.approx(want_var, rel=0.05)


@pytest.mark.parametrize("cut", [9.0, 20.0, 40.0, 100.0])
def test_truncated_sampler_far_tail(cut):
    # past about 37.5 sd ndtr(-cut) underflows, so only an inverse in log
    # space reaches the cut
    rng = rngmod.stream(23, "tail", int(cut))
    n = 200_000
    draws = truncated_normal_lower(np.zeros(n), np.ones(n), np.full(n, cut),
                                   rng)
    assert np.all(np.isfinite(draws)) and draws.min() >= cut
    # E[Z | Z >= a] = phi(a) / Phi(-a), the inverse Mills ratio
    want_mean = np.exp(norm.logpdf(cut) - log_ndtr(-cut))
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - want_mean) < 3 * se


def test_truncated_sampler_unbounded_below_is_the_normal():
    # lower = -inf takes the body formula: an untruncated N(mean, sd^2)
    rng = rngmod.stream(27, "untruncated")
    n = 200_000
    draws = truncated_normal_lower(np.full(n, -4.0), np.full(n, 3.0),
                                   np.full(n, -np.inf), rng)
    assert np.all(np.isfinite(draws))
    assert abs(draws.mean() + 4.0) < 3 * 3.0 / np.sqrt(n)
    assert draws.var(ddof=1) == pytest.approx(9.0, rel=0.02)
    assert np.mean(draws < -4.0) == pytest.approx(0.5, abs=0.005)


def test_sample_truncated_latent_respects_bounds():
    hyper = make_prior()
    x = np.array([1.0, 16.0, 16.0, 0.0])
    stockout = ObservationRecord(x, 20.0, 20.0, True)
    zero = ObservationRecord(x, 0.0, 40.0, False, floored=True)
    assert (stockout.bound, zero.bound) == ((1.0, 20.0), (-1.0, 0.0))
    rng = rngmod.stream(31, "lat")
    for _ in range(100):
        assert sample_truncated_latent(hyper, stockout, rng) >= 20.0
        assert sample_truncated_latent(hyper, zero, rng) <= 0.0
    # a floored zero whose predictive mean lies 40 sd above the bound
    x = np.array([1.0, 0.0, 0.0, 0.0])
    tight = PosteriorHyper(PRIOR_M, 1e-10 * np.eye(4), 3.0, 40.5,
                           fixed_sd=PRIOR_M[0] / 40.0)
    far = ObservationRecord(x, 0.0, 40.0, False, floored=True)
    assert float(x @ tight.m) / tight.predictive_sd(1e-10) == pytest.approx(
        40.0, rel=1e-9)
    draw = sample_truncated_latent(tight, far, rng)
    assert np.isfinite(draw) and draw <= 0.0


# -------------------------------------------------------------------- gibbs

def test_gibbs_no_censoring_matches_batch():
    rng = rngmod.stream(37, "design")
    X, y = random_design(rng, 30)
    history = [ObservationRecord(X[i], y[i], np.inf, False)
               for i in range(len(y))]
    batch = batch_conjugate_posterior(make_prior(), X, y)
    chain = gibbs_refresh(make_prior(), history, rngmod.stream(37, "chain"),
                          sweeps=4000, burn_in=500)
    sd = np.sqrt(np.diag(batch.S) * batch.noise_variance_mean())
    # generous Monte Carlo band: the dedicated acceptance test is tighter
    np.testing.assert_allclose(chain.m, batch.m, atol=0.2 * sd.max())


def test_gibbs_empty_history_returns_prior():
    out = gibbs_refresh(make_prior(), [], rngmod.stream(41, "g"))
    np.testing.assert_allclose(out.m, PRIOR_M)
    np.testing.assert_allclose(out.S, PRIOR_S)


def test_gibbs_censoring_shifts_mean_up():
    # all observations censored at stock far below the latent mean:
    # posterior demand at that covariate must exceed the naive fit to sales
    x = np.array([1.0, 10.0, 12.0, 0.0])
    history = [ObservationRecord(x, 20.0, 20.0, True) for _ in range(25)]
    chain = gibbs_refresh(make_prior(), history, rngmod.stream(43, "c"),
                          sweeps=2000, burn_in=500)
    assert float(x @ chain.m) > 20.0


def test_gibbs_fixed_noise_matches_known_variance_posterior():
    rng = rngmod.stream(47, "design")
    X, y = random_design(rng, 30)
    history = [ObservationRecord(X[i], y[i], np.inf, False)
               for i in range(len(y))]
    s2 = 4.5**2
    S0_inv = np.linalg.inv(PRIOR_S)
    Sn = np.linalg.inv(S0_inv + X.T @ X / s2)
    mn = Sn @ (S0_inv @ PRIOR_M + X.T @ y / s2)
    chain = gibbs_refresh(make_prior(4.5), history, rngmod.stream(47, "chain"),
                          sweeps=4000, burn_in=200)
    se = np.sqrt(np.diag(Sn) / 4000)
    np.testing.assert_allclose(chain.m, mn, atol=5 * se.max() + 1e-3)
    np.testing.assert_allclose(chain.S, Sn, atol=0.15 * np.abs(Sn).max())


def test_online_update_uncensored_equals_conjugate():
    x = np.array([1.0, 10.0, 12.0, 0.0])
    record = ObservationRecord(x, 21.0, 40.0, False)
    a = online_update(make_prior(), record, rngmod.stream(53, "u"))
    b = conjugate_update(make_prior(), x, 21.0)
    np.testing.assert_allclose(a.m, b.m)
    np.testing.assert_allclose(a.S, b.S)


def test_online_update_censored_is_deterministic_given_stream():
    x = np.array([1.0, 10.0, 12.0, 0.0])
    record = ObservationRecord(x, 20.0, 20.0, True)
    a = online_update(make_prior(), record, rngmod.stream(59, "c"))
    b = online_update(make_prior(), record, rngmod.stream(59, "c"))
    np.testing.assert_array_equal(a.m, b.m)
    # imputed latent lies above the stock level, pulling the mean up
    assert float(x @ a.m) > float(x @ PRIOR_M)


@pytest.mark.parametrize("noise_sd", [4.5, None])
@pytest.mark.parametrize("floored", [False, True])
def test_gibbs_online_update_ignores_incoming_posterior(noise_sd, floored):
    """A refresh reads the prior, the history and its stream, never the
    posterior it replaces; the simulation skips an update whose result
    only a refresh would have received."""
    history = crafted_history()
    if floored:
        x = np.array([1.0, 16.0, 16.0, 0.0])
        history.append(ObservationRecord(x, 0.0, 40.0, False, floored=True))
    stale = conjugate_update(make_prior(), history[0].covariate, 80.0)
    got = [online_update(incoming, history[-1], rngmod.stream(83, "dead"),
                         mode="gibbs-every-period", prior=make_prior(noise_sd),
                         history=history)
           for incoming in (make_prior(), stale)]
    np.testing.assert_array_equal(got[0].m, got[1].m)
    np.testing.assert_array_equal(got[0].S, got[1].S)
    assert (got[0].a, got[0].b) == (got[1].a, got[1].b)


def test_online_update_floored_pulls_mean_down():
    x = np.array([1.0, 16.0, 16.0, 0.0])
    record = ObservationRecord(x, 0.0, 40.0, False, floored=True)
    a = online_update(make_prior(), record, rngmod.stream(61, "f"))
    assert float(x @ a.m) < float(x @ PRIOR_M)


# ------------------------------------------------------------ type beliefs

def test_type_belief_bayes_rule():
    belief = TypeBelief(np.array([0.5, 0.5]))
    updated = update_type_belief(belief, np.array([0.2, 0.8]))
    np.testing.assert_allclose(updated.probs, [0.2, 0.8])


def test_type_belief_uniform_likelihood_is_identity():
    belief = TypeBelief(np.array([0.3, 0.7]))
    updated = update_type_belief(belief, np.array([1.0, 1.0]))
    np.testing.assert_allclose(updated.probs, belief.probs)


def test_type_belief_degenerate_evidence_keeps_prior():
    belief = TypeBelief(np.array([0.3, 0.7]))
    updated = update_type_belief(belief, np.array([0.0, 0.0]))
    np.testing.assert_allclose(updated.probs, belief.probs)
    assert updated.degenerate


@given(st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
                min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_type_belief_stays_probability_vector(likelihoods):
    belief = TypeBelief(np.array([0.5, 0.5]))
    for l0, l1 in likelihoods:
        belief = update_type_belief(belief, np.array([l0, l1]))
        assert belief.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(belief.probs >= 0.0)


# ------------------------------------------------- lean Gibbs sweep parity

def _general_draw(mean, sd, lower, u):
    """``truncated_normal_lower``'s arithmetic on given uniforms."""
    z = -ndtri_exp(np.log(u) + log_ndtr((mean - lower) / sd))
    return np.maximum(mean + sd * z, lower)


def _reference_gibbs(prior, history, sweeps, rng, burn_in, noise_sd=None):
    """The Gibbs refresh in coefficient space: every sweep draws the
    latents by the general sampler's formula on its row of the uniform
    block, a floored latent by reflection, then the coefficients and, with
    the variance learned, the variance. It reads the same blocks as
    ``gibbs_refresh`` and, with the noise sd fixed, runs the
    same ``FIXED_CHAINS`` chains (a leading axis of its arrays). Its
    estimate is Rao-Blackwellised in coefficient space: the mean and
    covariance of the kept sweeps' conditional coefficient means, plus the
    mean conditional covariance (``sigma2 Sn`` at the variance each draw
    used). Reference for the latent-excess recursion, the shared excess
    draw and the estimator on the rows' latents."""
    X = np.stack([np.asarray(r.covariate, dtype=float) for r in history])
    y = np.array([r.sales for r in history], dtype=float)
    stocks = np.array([r.stock for r in history], dtype=float)
    cens = np.array([r.censored for r in history], dtype=bool)
    floored = np.array([r.floored and not r.censored for r in history],
                       dtype=bool)
    n, p = X.shape
    k, n_cens, N = int(cens.sum() + floored.sum()), int(cens.sum()), \
        burn_in + sweeps
    learn = noise_sd is None
    C = 1 if learn else learning.FIXED_CHAINS
    S0_inv = np.linalg.inv(prior.S)
    Sn = np.linalg.inv(S0_inv + X.T @ X / (1.0 if learn else noise_sd**2))
    Ln = np.linalg.cholesky(Sn)
    shape = prior.a + 0.5 * (n + p)
    # the learned-variance chain draws (N, k) and (N, p) blocks: the same
    # variates as (N, 1, k) and (N, 1, p)
    U = 1.0 - rng.random((N, k) if learn else (N, C, k)).reshape(N, C, k)
    Z = rng.standard_normal((N, p) if learn else (N, C, p)).reshape(N, C, p)
    G = rng.gamma(shape, size=N) if learn else None

    psi = np.tile(prior.m, (C, 1))
    sigma2 = prior.b / (prior.a + 1.0) if learn else noise_sd**2
    cond_means = np.empty((sweeps, C, p))
    cond_vars = np.empty(sweeps)
    var_draws = np.empty(sweeps)
    latent = np.tile(y, (C, 1))
    for it in range(N):
        sd = np.sqrt(sigma2) if learn else noise_sd
        mu_c, mu_f = psi @ X[cens].T, psi @ X[floored].T
        latent[:, cens] = _general_draw(mu_c, sd, stocks[cens],
                                        U[it, :, :n_cens])
        latent[:, floored] = -_general_draw(-mu_f, sd, -0.0,
                                            U[it, :, n_cens:])
        if not learn:
            mu = (S0_inv @ prior.m + latent @ X / sigma2) @ Sn
            psi = mu + Z[it] @ Ln.T
        else:
            mu = (S0_inv @ prior.m + latent @ X) @ Sn
            psi = mu + sd * (Z[it] @ Ln.T)
        if it >= burn_in:
            cond_means[it - burn_in] = mu
            cond_vars[it - burn_in] = sigma2  # the variance psi was drawn at
        if learn:
            resid = latent[0] - X @ psi[0]
            dev = psi[0] - prior.m
            quad = float(resid @ resid + dev @ S0_inv @ dev)
            sigma2 = (prior.b + 0.5 * quad) / G[it]
        if it >= burn_in:
            var_draws[it - burn_in] = sigma2
    cond_means = cond_means.reshape(sweeps * C, p)
    m = cond_means.mean(axis=0)
    coef_cov = (np.cov(cond_means, rowvar=False)
                + (cond_vars.mean() if learn else 1.0) * Sn)
    if not learn:
        return PosteriorHyper(m, coef_cov, prior.a, prior.b)
    v_mean = var_draws.mean()
    v_var = var_draws.var(ddof=1)
    if v_var > 0:
        a = v_mean**2 / v_var + 2.0
        b = v_mean * (a - 1.0)
    else:
        a, b = prior.a + 0.5 * n, v_mean * (prior.a + 0.5 * n - 1.0)
    return PosteriorHyper(m, coef_cov / v_mean, a, b)


def crafted_history(n=24):
    """Uncensored, censored and floored records, and one censored record
    whose stock lies about 8 noise sd past the predictive mean, a far-tail
    row in some sweeps."""
    X, y = random_design(rngmod.stream(67, "crafted"), n)
    history = []
    for i in range(n):
        if i % 4 == 1:  # stockout: demand at least the stock
            history.append(ObservationRecord(X[i], y[i] - 3.0, y[i] - 3.0, True))
        elif i == 6:  # zero sales without a stockout
            history.append(ObservationRecord(X[i], 0.0, 40.0, False, floored=True))
        else:
            history.append(ObservationRecord(X[i], y[i], 60.0, False))
    x = np.array([1.0, 16.0, 8.0, 0.0])  # true mean demand -3
    history.append(ObservationRecord(x, 42.0, 42.0, True))
    return history


@pytest.mark.parametrize("n_cens,n_floored,tail", [
    (0, 0, None), (1, 0, None), (3, 0, None), (16, 0, None),
    (0, 1, None), (0, 3, None), (2, 1, None), (8, 8, None),
    (1, 0, "lower"), (3, 3, "lower"), (3, 3, "upper"), (0, 16, "upper")])
@pytest.mark.parametrize("sd", [4.5, np.float64(2.75)])
def test_lean_draw_matches_general_sampler(n_cens, n_floored, tail, sd,
                                           monkeypatch):
    gen = rngmod.stream(71, "rows", n_cens, n_floored)
    c_mean = gen.uniform(10.0, 40.0, n_cens)
    stocks = c_mean + sd * gen.uniform(-2.0, 2.5, n_cens)
    f_mean = sd * gen.uniform(-2.5, 2.0, n_floored)
    if tail == "lower":
        stocks[0] = c_mean[0] + 9.0 * sd
    if tail == "upper":  # the reflected cut -0 lies 9.5 sd past -mean
        f_mean[-1] = 9.5 * sd
    # covariate (mean, 0, 0, 0) under psi = e1 gives each row's mean exactly
    history = [ObservationRecord(np.array([20.0, 0.0, 0.0, 0.0]), 20.0, 60.0,
                                 False)]
    history += [ObservationRecord(np.array([m, 0.0, 0.0, 0.0]), s, s, True)
                for m, s in zip(c_mean, stocks)]
    history += [ObservationRecord(np.array([m, 0.0, 0.0, 0.0]), 0.0, 40.0,
                                  False, floored=True) for m in f_mean]
    rows = learning._CensoredRows(np.stack([r.covariate for r in history]),
                                  history)
    np.testing.assert_array_equal(rows.rows, np.arange(1, len(history)))
    psi = np.array([1.0, 0.0, 0.0, 0.0])

    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return truncated_normal_lower(*args)

    # the uniforms come from a twin of the reference's generator
    r_twin = rngmod.stream(73, "draw", n_cens, n_floored)
    r_ref = rngmod.stream(73, "draw", n_cens, n_floored)
    u = 1.0 - r_twin.random(n_cens + n_floored)
    monkeypatch.setattr(learning, "truncated_normal_lower", counted)
    e = rows.excess((rows.SX @ psi - rows.lower) / sd, np.log(u))
    monkeypatch.undo()
    assert np.all(e >= 0.0)
    got = rows.sign * (rows.lower + sd * e)
    # one general call over both sides: a floored row by reflection
    sign = np.r_[np.ones(n_cens), -np.ones(n_floored)]
    mean = np.r_[c_mean, f_mean]
    lower = np.r_[stocks, np.full(n_floored, -0.0)]
    want = sign * truncated_normal_lower(sign * mean, np.full(len(mean), sd),
                                         lower, r_ref)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * sd)
    # same generator state after: the general sampler draws one uniform per
    # element, the lean draw reads only the given uniforms, far tail or not
    assert r_twin.random() == r_ref.random()
    assert calls == []


@pytest.mark.parametrize("noise_sd", [4.5, None])
@pytest.mark.parametrize("censored", [True, False])
def test_lean_gibbs_refresh_matches_reference(noise_sd, censored, monkeypatch):
    history = crafted_history()
    if not censored:
        history = [ObservationRecord(r.covariate, r.sales, np.inf, False)
                   for r in history]
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return truncated_normal_lower(*args)

    r_lean, r_ref = rngmod.stream(79, "g"), rngmod.stream(79, "g")
    monkeypatch.setattr(learning, "truncated_normal_lower", counted)
    got = gibbs_refresh(make_prior(noise_sd), history, r_lean, sweeps=300,
                        burn_in=100)
    monkeypatch.undo()
    want = _reference_gibbs(make_prior(), history, 300, r_ref, 100,
                            noise_sd=noise_sd)
    np.testing.assert_allclose(got.m, want.m, rtol=1e-10)
    np.testing.assert_allclose(got.S, want.S, rtol=1e-10)
    np.testing.assert_allclose([got.a, got.b], [want.a, want.b], rtol=1e-10)
    assert r_lean.random() == r_ref.random()  # same generator state after
    # the far-tail row is drawn from the block like every other row
    assert calls == []


def _edge_history(kind):
    """Twelve uncensored rows plus exactly one censored row, or plus only
    floored rows (zero sales where the prior predicts little demand)."""
    X, y = random_design(rngmod.stream(101, "edge"), 12)
    history = [ObservationRecord(X[i], y[i], 60.0, False) for i in range(12)]
    if kind == "one-censored":
        history[3] = ObservationRecord(X[3], y[3] - 2.0, y[3] - 2.0, True)
    else:
        x = np.array([1.0, 16.0, 8.0, 0.0])
        history += [ObservationRecord(x, 0.0, 40.0, False, floored=True)] * 3
    return history


@pytest.mark.parametrize("noise_sd", [4.5, None])
@pytest.mark.parametrize("kind", ["one-censored", "floored-only"])
def test_gibbs_refresh_edge_histories(kind, noise_sd):
    """A single latent row (its covariance is 1 x 1) and floored rows
    alone: the estimator matches the coefficient-space reference, and S is
    symmetric positive definite. With the noise sd fixed, S is at least the
    complete-data covariance Sn: the latents' spread only adds to it."""
    history = _edge_history(kind)
    got = gibbs_refresh(make_prior(noise_sd), history, rngmod.stream(103, kind),
                        sweeps=75, burn_in=25)
    want = _reference_gibbs(make_prior(), history, 75,
                            rngmod.stream(103, kind), 25, noise_sd=noise_sd)
    np.testing.assert_allclose(got.m, want.m, rtol=1e-10)
    np.testing.assert_allclose(got.S, want.S, rtol=1e-10)
    np.testing.assert_array_equal(got.S, got.S.T)
    assert np.linalg.eigvalsh(got.S).min() > 0.0
    if noise_sd is not None:
        X = np.stack([r.covariate for r in history])
        Sn = np.linalg.inv(np.linalg.inv(PRIOR_S) + X.T @ X / noise_sd**2)
        assert np.linalg.eigvalsh(got.S - Sn).min() > -1e-12
    if kind == "floored-only":  # zero sales pull the mean demand down
        assert float(history[-1].covariate @ got.m) < float(
            history[-1].covariate @ PRIOR_M)


def test_gibbs_refresh_needs_two_sweeps():
    with pytest.raises(ValueError, match="sweeps"):
        gibbs_refresh(make_prior(4.5), crafted_history(),
                      rngmod.stream(107, "one"), sweeps=1)


class _LoggedGenerator:
    """A generator that logs each variate request by method and size."""

    def __init__(self, rng):
        self.rng, self.log = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.log.append((name, args, kwargs))
            return getattr(self.rng, name)(*args, **kwargs)
        return call


@pytest.mark.parametrize("noise_sd", [4.5, None])
def test_gibbs_refresh_draws_one_block_per_refresh(noise_sd):
    """A refresh makes exactly three requests (two with the noise sd
    fixed), also with a row about 8 sd into the tail: the uniforms of every
    sweep (and chain), the normals of every sweep, the variance draws of
    every sweep, and no per-sweep calls to the generator."""
    history = crafted_history()
    n, p, k = len(history), 4, sum(r.hidden for r in history)
    N = 100 + 300
    chains = (N,) if noise_sd is None else (N, learning.FIXED_CHAINS)
    rng = _LoggedGenerator(rngmod.stream(89, "block"))
    gibbs_refresh(make_prior(noise_sd), history, rng, sweeps=300, burn_in=100)
    twin = rngmod.stream(89, "block")
    twin.random((*chains, k))
    twin.standard_normal((*chains, p))
    shape = make_prior().a + 0.5 * (n + p)
    want = [("random", ((*chains, k),), {}),
            ("standard_normal", ((*chains, p),), {})]
    if noise_sd is None:
        twin.gamma(shape, size=N)
        want.append(("gamma", (shape,), {"size": N}))
    assert rng.log == want
    assert rng.rng.random(8).tolist() == twin.random(8).tolist()


def study_history(n=58):
    """A history shaped like a simulated study's last refresh: prices 9-13,
    stock at the bottom of the quantity grid plus some carried inventory,
    a lagged rival stockout in about two rows of five, and 22 of its 58
    rows censored."""
    gen = rngmod.stream(97, "study")
    X = np.column_stack([np.ones(n), gen.integers(9, 14, size=(n, 2)),
                         gen.random(n) < 0.4])
    demand = X @ TRUTH.coefficients() + TRUTH.sigma * gen.standard_normal(n)
    stock = 20.0 + np.where(gen.random(n) < 0.5, 0.0, gen.uniform(0, 10, n))
    sales = np.clip(demand, 0.0, stock)
    return [ObservationRecord(X[i], sales[i], stock[i],
                              bool(demand[i] >= stock[i]),
                              floored=bool(demand[i] <= 0.0))
            for i in range(n)]


@pytest.mark.parametrize("noise_sd", [4.5, None])
def test_online_update_runs_the_measured_chain(noise_sd):
    """A refresh through ``online_update``, which the simulation calls
    without chain lengths, runs ``GIBBS_CHAIN``'s burn-in + sweeps."""
    burn_in, sweeps = learning.GIBBS_CHAIN["fixed" if noise_sd else "learn"]
    chains = (learning.FIXED_CHAINS,) if noise_sd else ()
    history = crafted_history()
    k = sum(r.hidden for r in history)
    rng = _LoggedGenerator(rngmod.stream(109, "chain"))
    got = online_update(make_prior(noise_sd), history[-1], rng,
                        mode="gibbs-every-period", prior=make_prior(noise_sd),
                        history=history)
    assert rng.log[0][:2] == ("random", ((burn_in + sweeps, *chains, k),))
    want = gibbs_refresh(make_prior(noise_sd), history,
                         rngmod.stream(109, "chain"), sweeps=sweeps,
                         burn_in=burn_in)
    np.testing.assert_array_equal(got.m, want.m)
    np.testing.assert_array_equal(got.S, want.S)


# Two-sided false-alarm rate of one bias comparison below; the test makes
# sixteen (4 coefficients x 2 histories x 2 chains), so a correct sampler
# fails for about one seed choice in 625.
MC_FALSE_ALARM = 1e-4
MC_Z = float(norm.ppf(1 - MC_FALSE_ALARM / 2))  # 3.89
# Per-coefficient RMS error of one refresh relative to the posterior sd, for
# one chain of 100 burn-in + 300 sweeps averaging the coefficient draws (the
# refresh before Rao-Blackwellisation): 800 refreshes against this test's
# reference chains. A refresh at GIBBS_CHAIN's lengths must be no less
# accurate on any coefficient.
OLD_CHAIN_RMSE = {
    ("fixed", "crafted"): [0.069, 0.069, 0.064, 0.069],
    ("fixed", "study"): [0.072, 0.088, 0.079, 0.072],
    ("learn", "crafted"): [0.092, 0.092, 0.076, 0.073],
    ("learn", "study"): [0.092, 0.110, 0.079, 0.076],
}
# RMS over refreshes of the largest error of the coefficient covariance,
# elementwise in units of sqrt(S_ii S_jj). The old chain measured 0.135-0.146
# with the noise sd fixed and 0.168 with it learned on both histories; the
# Rao-Blackwellised chains at GIBBS_CHAIN's lengths 0.03-0.05 and 0.09-0.10.
MC_S_BOUND = {"fixed": 0.12, "learn": 0.15}


@pytest.mark.parametrize("noise_sd", [4.5, None])
def test_gibbs_refresh_monte_carlo_error(noise_sd):
    """Monte Carlo error of one refresh at the simulation's chain length
    (``learning.GIBBS_CHAIN``), against a refresh of 20,000 sweeps per
    chain on the same censored history: the crafted one and a study-like
    one."""
    mode = "fixed" if noise_sd else "learn"
    sweeps = learning.GIBBS_CHAIN[mode][1]
    k = 100
    for name, history in (("crafted", crafted_history()),
                          ("study", study_history())):
        ref = gibbs_refresh(make_prior(noise_sd), history,
                            rngmod.stream(83, "ref"), sweeps=20_000,
                            burn_in=1000)
        outs = [gibbs_refresh(make_prior(noise_sd), history,
                              rngmod.stream(83, "short", i))
                for i in range(k)]
        ms = np.array([o.m for o in outs])
        err = ms - ref.m
        # se of the mean error from the short chains' own spread; the
        # reference chain's error is that of a chain 20,000 / sweeps times
        # longer
        spread = ms.std(axis=0, ddof=1)
        se = spread * np.sqrt(1.0 / k + sweeps / 20_000)
        assert np.all(np.abs(err.mean(axis=0)) <= MC_Z * se), \
            err.mean(axis=0) / se
        cov = [o.S * (1.0 if noise_sd else o.noise_variance_mean())
               for o in (ref, *outs)]
        post_var = np.diag(cov[0])
        rel_rmse = np.sqrt(np.mean(err**2, axis=0) / post_var)
        # 0.03-0.07 with the noise sd fixed and 0.04-0.09 with it learned
        # when this was written; its sampling error over 100 refreshes is
        # about 7% of it. A change to the draws or the chain keeps it below
        # 0.2 and below the old chain's.
        assert np.all(rel_rmse < 0.2), rel_rmse
        assert np.all(rel_rmse <= OLD_CHAIN_RMSE[mode, name]), rel_rmse
        scale = np.sqrt(np.outer(post_var, post_var))
        s_err = np.array([(np.abs(c - cov[0]) / scale).max() for c in cov[1:]])
        assert np.sqrt(np.mean(s_err**2)) < MC_S_BOUND[mode], s_err


# ------------------------------------------------------------ PD repair

def test_ensure_pd_passes_symmetrizes_repairs_and_raises():
    good = np.array([[4.0, 1.0, 0.0], [1.0 + 1e-13, 3.0, 0.5],
                     [0.0, 0.5, 2.0]])
    out = learning._ensure_pd(good)
    np.testing.assert_array_equal(out, 0.5 * (good + good.T))

    v = np.array([1.0, 2.0, 3.0])
    scale = v @ v / 3.0  # trace over dimension
    # rank one: the first jitter repairs it; one eigenvalue at -1e-8 needs
    # the retry at a 1000-fold jitter
    for S, boost in ((np.outer(v, v), 1.0),
                     (np.outer(v, v) - 1e-8 * np.eye(3), 1e3)):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)
        fixed = learning._ensure_pd(S)
        np.testing.assert_array_equal(fixed, fixed.T)
        np.linalg.cholesky(fixed)
        np.testing.assert_allclose(fixed - S, 1e-10 * boost * scale * np.eye(3),
                                   rtol=0, atol=1e-15 * scale)

    with pytest.raises(learning.PosteriorDegenerateError):
        learning._ensure_pd(-np.eye(3))
    with pytest.raises(learning.PosteriorDegenerateError):
        PosteriorHyper(PRIOR_M, -PRIOR_S, 3.0, 40.5)


def test_ensure_pd_rejects_non_finite():
    S = np.full((2, 2), np.nan)
    np.linalg.cholesky(S)  # does not raise on NaN: only a finiteness check can
    with pytest.raises(learning.PosteriorDegenerateError):
        learning._ensure_pd(S)
    S = PRIOR_S.copy()
    S[1, 2] = S[2, 1] = np.inf
    with pytest.raises(learning.PosteriorDegenerateError):
        PosteriorHyper(PRIOR_M, S, 3.0, 40.5)
