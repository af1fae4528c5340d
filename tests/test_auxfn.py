import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yflow import auxfn
from yflow.auxfn import (
    AuxParams,
    RegionError,
    check_inequality,
    find_counterexample,
    locate_chain_constant,
    locate_tilde_constants,
    run_catalogue,
)

BETAS = st.floats(min_value=1.0, max_value=50.0)
ELLS = st.floats(min_value=1e-3, max_value=1e3)
XS = st.floats(min_value=0.0, max_value=1e3)
NUS = st.floats(min_value=1e-3, max_value=0.75).filter(lambda v: abs(v - 0.5) > 1e-3)
ULP = float(np.finfo(float).eps)     # one unit in the last place, relative

# the family bodies: (beta, L, x), the tilde ones (beta, L, nu, x), f and F (beta, L, n, x)
BASE = (auxfn._phi, auxfn._G, auxfn._H)
TILDE = (auxfn._tphi, auxfn._tG, auxfn._tH)

# 4095 points in s = x/L > 1, dense just past the branch point: the scan that once
# located C1, C2, C4 and the I8 gate, kept as their reference
SUP_GRID = np.concatenate([
    1.0 + np.exp(np.linspace(math.log(1e-10), math.log(1.0), 2048)),
    np.exp(np.linspace(math.log(2.0), math.log(1e6), 2048))[1:],
])
SCAN_SAFETY = 1.0 + 1e-4    # the scan's allowance for its interpolation error


# --- frozen branch values ----------------------------------------------------


def test_phi_inner_branch_value():
    assert auxfn._phi(2.0, 1.0, 0.5) == pytest.approx(0.25, rel=1e-15)


def test_H_outer_branch_value():
    assert auxfn._H(2.0, 1.0, 2.0) == pytest.approx(11.0 / 3.0, rel=1e-14)


def test_G_inner_branch_closed_form():
    for beta, L, x in ((1.5, 2.0, 1.0), (3.0, 5.0, 4.0), (1.0, 1.0, 0.3)):
        want = beta**2 / (2 * beta - 1) * x ** (2 * beta - 1)
        assert auxfn._G(beta, L, x) == pytest.approx(want, rel=1e-14)


def test_f_inner_branch_value():
    assert auxfn._f(1.0, 1.0, 3, 0.5) == pytest.approx(0.25, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(beta=BETAS, L=ELLS, x=XS)
def test_F_definition_identity(beta, L, x):
    lhs = auxfn._F(beta, L, 3, x) ** (2 * beta + 1)
    rhs = x * auxfn._f(beta, L, 3, x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(beta=BETAS, L=ELLS, x=XS)
def test_tilde_family_reduces_at_nu_one(beta, L, x):
    for tilde, base in zip(TILDE, BASE):
        assert tilde(beta, L, 1.0, x) == pytest.approx(base(beta, L, x), rel=1e-11, abs=1e-280)


@settings(max_examples=300, deadline=None)
@given(beta=BETAS, L=ELLS)
def test_branch_continuity_at_L(beta, L):
    below, above = L * (1 - 1e-12), L * (1 + 1e-12)
    for fn in BASE:
        assert fn(beta, L, below) == pytest.approx(fn(beta, L, above), rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(beta=BETAS, L=ELLS, nu=NUS)
def test_tilde_branch_continuity_at_L(beta, L, nu):
    below, above = L * (1 - 1e-12), L * (1 + 1e-12)
    for fn in TILDE:
        assert fn(beta, L, nu, below) == pytest.approx(fn(beta, L, nu, above), rel=1e-8)


@settings(max_examples=300, deadline=None)
@given(beta=BETAS, L=ELLS,
       nu=st.floats(min_value=0.05, max_value=0.75).filter(
           lambda v: abs(v - 0.5) > 1e-3))
@example(beta=40, L=1.375, nu=0.49500260913224964)
def test_branch_values_match_at_one_ulp(beta, L, nu):
    # the outer branches are anchored at the junction value, so one ulp past
    # L the values agree to full precision
    # f itself jumps at L by construction (the jump is its point), so only
    # phi, G, H and their tilde variants are continuous.  The branch values
    # agree to the power-quantization floor: one ulp of x moves the steep
    # outer terms by up to ~beta^2/(nu |2 nu - 1|) ulps, which grows as nu
    # nears the 1/2 +- 1e-3 filter edge (the example above jumps by 1.0e-10
    # relative, 1.4x that bound).  The tolerance is 8x the bound at the drawn
    # (beta, nu), nu = 1 for the untilded family; a probe of 2e4 draws,
    # corners and edge included, peaked at 3x (3 ulps at beta = 1)
    above = float(np.nextafter(L, np.inf))
    for fn, params, fam_nu in ([(fn, (beta, L), 1.0) for fn in BASE]
                               + [(fn, (beta, L, nu), nu) for fn in TILDE]):
        ulps = beta**2 / (fam_nu * abs(2.0 * fam_nu - 1.0))
        assert fn(*params, above) == pytest.approx(fn(*params, L), rel=8.0 * ulps * ULP)


@settings(max_examples=300, deadline=None)
@given(beta=BETAS, L=ELLS, nu=NUS)
def test_phi_c1_matching_at_L(beta, L, nu):
    # one-sided difference quotients agree across the joint
    h = 1e-7 * L
    for fn, params in ((auxfn._phi, (beta, L)), (auxfn._tphi, (beta, L, nu))):
        left = (fn(*params, L) - fn(*params, L - h)) / h
        right = (fn(*params, L + h) - fn(*params, L)) / h
        assert left == pytest.approx(right, rel=1e-5)


def test_H_eventually_constant_in_L():
    beta, x = 2.5, 3.0
    want = beta / (2 * (2 * beta - 1)) * x ** (2 * beta)
    for L in (3.0, 10.0, 1e3, 1e6):
        assert auxfn._H(beta, L, x) == pytest.approx(want, rel=1e-15)
    assert check_inequality("LIMITS", AuxParams(beta=beta, L=10.0), x)


def test_negative_x_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        check_inequality("I1", AuxParams(beta=2.0, L=1.0), -0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        AuxParams(beta=0.5, L=1.0)
    with pytest.raises(ValueError):
        AuxParams(beta=1.0, L=-1.0)
    with pytest.raises(ValueError):
        AuxParams(beta=1.0, L=1.0, nu=0.5)
    with pytest.raises(ValueError):
        AuxParams(beta=1.0, L=1.0, n=2)
    with pytest.raises(RegionError, match="nu <= n/4"):
        check_inequality("I9", AuxParams(beta=2.0, L=1.0, nu=0.9, n=3), 1.0)


# --- display oracles ---------------------------------------------------------


def _xg_minus_nh_display(beta, L, n, x):
    # piecewise closed form of x G - (n/2) H, derived independently
    if x <= L:
        return beta / (2 * beta - 1) * (beta - n / 4.0) * x ** (2 * beta)
    s = x / L
    return beta**2 * L ** (2 * beta) * (
        (1 - n / 4.0) * s**2
        + 2 * (beta - 1) / (2 * beta - 1) * (n / 2.0 - 1) * s
        - n * (beta - 1) / (4 * beta)
    )


@settings(max_examples=300, deadline=None)
@given(beta=BETAS, L=st.floats(min_value=0.1, max_value=10.0),
       x=st.floats(min_value=0.0, max_value=30.0),
       n=st.sampled_from([3, 4, 5, 6, 8]))
def test_xg_minus_nh_matches_display(beta, L, x, n):
    direct = x * auxfn._G(beta, L, x) - 0.5 * n * auxfn._H(beta, L, x)
    display = _xg_minus_nh_display(beta, L, n, x)
    scale = max(1.0, abs(direct), abs(display))
    assert abs(direct - display) <= 1e-9 * scale


@settings(max_examples=300, deadline=None)
@given(beta=BETAS, L=st.floats(min_value=0.1, max_value=10.0),
       x=st.floats(min_value=0.0, max_value=30.0),
       n=st.sampled_from([3, 4, 5, 6, 8]))
def test_sign_display_for_lower_bound_argument(beta, L, x, n):
    # (n/2) H - x G - (n-2)/4 phi^2 has an explicit piecewise form
    direct = (0.5 * n * auxfn._H(beta, L, x) - x * auxfn._G(beta, L, x)
              - 0.25 * (n - 2) * auxfn._phi(beta, L, x) ** 2)
    if x <= L:
        display = -((4 * beta + n) * (beta - 1) + 2) / (4 * (2 * beta - 1)) * x ** (
            2 * beta
        )
    else:
        s = x / L
        display = 0.25 * L ** (2 * beta) * (
            -2 * beta**2 * s**2
            - 2 * (n - 2) * beta * (beta - 1) / (2 * beta - 1) * s
            + (beta - 1) * (n + 2 * (beta - 1))
        )
    scale = max(1.0, abs(direct), abs(display))
    assert abs(direct - display) <= 1e-9 * scale
    assert direct <= 1e-12 * scale  # the sign fact itself


def test_chain_coefficient_at_pinned_nu():
    # at nu = beta/(2 beta + 1) the matching constant collapses to -beta^2
    for beta in (1.0, 2.25, 7.0, 33.0):
        nu = beta / (2 * beta + 1)
        assert auxfn._C_coeff(beta, nu) == pytest.approx(-(beta**2), rel=1e-12)


def test_psi_properties():
    # I12: psi = sqrt(x^2 + eps^2) - eps has 0 <= psi' <= 1, psi'' >= 0 and
    # |psi - x| <= eps; at x = 0 the bound psi' >= 0 is attained
    xs = np.linspace(0.0, 10.0, 1001)
    for eps in (1e-3, 0.3, 10.0):
        lhs, rhs = auxfn._sides_I12(1.0, eps, 1.0, 3, xs)
        assert lhs.shape == rhs.shape == xs.shape
        assert np.all(lhs <= rhs + 1e-12)
        assert lhs[0] == 0.0 and np.all(lhs[1:] < 0.0)


# --- catalogue ---------------------------------------------------------------


def test_check_inequality_frozen_cases():
    # 12 beta H at beta = 1 is 6 x^2 >= phi^2 = x^2
    assert check_inequality("I3", AuxParams(beta=1.0, L=5.0), 2.0)
    # H(2,1,2) = 11/3 <= beta^2 x^{2 beta} = 64
    assert check_inequality("I1", AuxParams(beta=2.0, L=1.0), 2.0)
    # scalar parameters reach the located constants as 0-d columns
    tilde = AuxParams(beta=3.0, L=2.0, nu=0.3, n=4)
    assert check_inequality("I9", tilde, 5.0)
    assert check_inequality("I9", tilde, np.array([0.5, 2.0, 40.0]))
    assert check_inequality("I11", AuxParams(beta=3.0, L=2.0, nu=3.0 / 7.0, n=4), 2.0)


def test_check_inequality_region_errors():
    with pytest.raises(RegionError, match="n >= 4"):
        check_inequality("I4", AuxParams(beta=2.0, L=1.0, n=3), 1.0)
    with pytest.raises(RegionError, match="beta = n/4"):
        check_inequality("I2", AuxParams(beta=2.0, L=1.0, n=4), 1.0)
    with pytest.raises(RegionError, match="nu = beta"):
        check_inequality("I10", AuxParams(beta=2.0, L=1.0, nu=0.3), 1.0)
    with pytest.raises(RegionError, match="beta <="):
        check_inequality("I6", AuxParams(beta=10.0, L=1.0, n=4), 1.0)
    with pytest.raises(RegionError, match="nu < 1/2"):
        check_inequality("I8", AuxParams(beta=2.0, L=1.0, nu=0.7, n=3), 1.0)
    with pytest.raises(ValueError, match="unknown inequality"):
        check_inequality("I99", AuxParams(beta=2.0, L=1.0), 1.0)


def test_i8_region_admits_chain_parameters():
    # the level-chain argument in dimension 3 runs at beta = 9/4 with
    # nu = beta/(2 beta + 1) = 9/22; the oracle-located region must cover it
    from yflow.auxfn import i8_region_ok

    assert i8_region_ok(2.25, 9.0 / 22.0, 3)
    assert i8_region_ok(2.25, 0.3, 3)
    assert check_inequality("I8", AuxParams(beta=2.25, L=1.0, nu=9.0 / 22.0, n=3), 5.0)
    # but not the mid-range failure band found by direct search
    assert not i8_region_ok(7.1356572689916336, 0.4782323835042881, 3)


def test_i6_beta_ceiling_brackets_sharp_value():
    from yflow.auxfn import AuxParams as AP
    from yflow.auxfn import i6_beta_max

    for n in (3, 4, 6, 10):
        bmax = i6_beta_max(n)
        assert 1.0 < bmax < 60.0
        # just inside: clean; just outside with x at the branch point: violated
        inside = AP(beta=bmax * (1 - 1e-6), L=1.0, n=n)
        assert check_inequality("I6", inside, 1.0 + 1e-9)
        v = find_counterexample("I6", budget=20_000, out_of_region=True)
        assert v is not None and v.lhs > v.rhs


@pytest.mark.parametrize("ineq_id", auxfn.catalogue_ids())
def test_catalogue_clean_inside_regions(ineq_id):
    v = find_counterexample(ineq_id, budget=20_000, seed=auxfn.DEFAULT_SEED)
    assert v is None, f"{ineq_id} violated at {v}"


def test_sharpness_probe_I2():
    v = find_counterexample("I2", budget=20_000, out_of_region=True)
    assert v is not None
    assert v.params.beta > v.params.n / 4.0
    assert v.lhs > v.rhs


def test_sharpness_probe_I4():
    v = find_counterexample("I4", budget=20_000, out_of_region=True)
    assert v is not None
    assert v.params.n == 3
    assert v.lhs > v.rhs


def test_sharpness_unavailable_elsewhere():
    with pytest.raises(ValueError, match="sharpness"):
        find_counterexample("I1", out_of_region=True)


def test_located_constants_certify():
    rng = np.random.default_rng(12)
    for _ in range(20):
        beta = float(np.exp(rng.uniform(0.0, math.log(50.0))))
        nu = float(rng.uniform(0.05, 0.45))
        c1, c2 = locate_tilde_constants(beta, nu, 3)
        xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=2000))
        tp, tg, th = (fn(beta, 1.0, nu, xs) for fn in TILDE)
        # 1e-300 floor: comparisons in the subnormal range are void
        assert np.all(tp**2 <= c1 * th * (1 + 1e-9) + 1e-300)
        assert np.all(xs * tg <= c2 * th * (1 + 1e-9) + 1e-300)


def test_chain_constant_certifies():
    rng = np.random.default_rng(13)
    for beta in (1.5, 2.25, 10.0):
        c4 = locate_chain_constant(beta, 3)
        nu = beta / (2 * beta + 1)
        xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=2000))
        tf2 = auxfn._tF(beta, 1.0, nu, 3, xs) ** (2 * beta)
        th = auxfn._tH(beta, 1.0, nu, xs)
        assert np.all(tf2 <= c4 * th * (1 + 1e-9) + 1e-300)


# --- the located constants against the 4095-point scan -------------------------


def _draw_groups(sampler, groups, seed):
    """(beta, nu, n) of ``groups`` parameter groups drawn by a grouped sampler."""
    b, _, nu, n, _ = sampler(np.random.default_rng(seed), 512 * groups)
    return [(float(v), float(w), int(m)) for v, w, m in zip(b[::512], nu[::512], n[::512])]


def test_chain_constant_is_the_scanned_closed_form():
    # past L the chain ratio falls because x tG >= tH, so the scan never beats the
    # closed form: C4 keeps the scan's value bit for bit
    rng = np.random.default_rng(21)
    for _ in range(2000):
        beta = float(np.exp(rng.uniform(0.0, math.log(50.0))))
        n = int(rng.choice(auxfn._N_CHOICES))
        nu = beta / (2.0 * beta + 1.0)
        assert np.all(SUP_GRID * auxfn._tG(beta, 1.0, nu, SUP_GRID)
                      >= auxfn._tH(beta, 1.0, nu, SUP_GRID))
        ratio = auxfn._tF(beta, 1.0, nu, n, SUP_GRID) ** (2.0 * beta) / auxfn._tH(
            beta, 1.0, nu, SUP_GRID)
        inner = 2.0 * (2.0 * beta - 1.0) * beta ** (2.0 * nu - 1.0)
        jump = (0.5 * n * abs(auxfn._C_coeff(beta, nu))) ** (2.0 * nu) * 2.0 * (
            2.0 * beta - 1.0) / beta
        scanned = max(float(np.max(ratio)), inner, jump) * SCAN_SAFETY
        assert locate_chain_constant(beta, n) == scanned


def test_tilde_constants_bound_the_scan_within_its_allowance():
    # C1 and C2 are the inner constants times a rounding bound: at least every
    # gridded ratio, at most the scan's maximum times its 1 + 1e-4
    groups = (_draw_groups(auxfn._sample_tilde, 600, 22)
              + _draw_groups(auxfn._sample_I8, 600, 23))
    for beta, nu, n in groups:
        tp, tg, th = (fn(beta, 1.0, nu, SUP_GRID) for fn in TILDE)
        scanned = (max(float(np.max(tp * tp / th)), 2.0 * (2.0 * beta - 1.0) / beta),
                   max(float(np.max(SUP_GRID * tg / th)), 2.0 * beta))
        for c, scan in zip(locate_tilde_constants(beta, nu, n), scanned):
            assert scan <= c <= scan * SCAN_SAFETY, (beta, nu, n)


def _scanned_i8_margin(beta, nu, n):
    # the largest relative margin over three inner points and the outer grid, at L = 1
    lhs, rhs = (np.concatenate(side) for side in zip(
        auxfn._sides_I8(beta, 1.0, nu, n, np.array([0.25, 0.75, 1.0])),
        auxfn._sides_I8(beta, 1.0, nu, n, SUP_GRID)))
    return float(np.max((lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))


def _gates_differ(beta, nu, n):
    """Whether the located gate and the scan's decide (beta, nu, n) apart; a difference
    may only come where the scan's margin is within its 1e-4 allowance of -1e-9."""
    scanned = _scanned_i8_margin(beta, nu, n)
    if scanned > -0.5:      # the outer branch's margin, which the scan samples
        located = float(auxfn._i8_sup_margin(beta, nu, n))
        assert scanned - 1e-12 <= located <= scanned + 1e-4, (beta, nu, n)
    differ = auxfn.i8_region_ok(beta, nu, n) != (scanned <= -1e-9)
    assert not differ or abs(scanned + 1e-9) <= 1e-4, (beta, nu, n)
    return differ


def test_i8_gate_agrees_with_the_scan():
    # raw draws of the I8 sampler, each followed down its halvings of nu until the
    # scan admits it: 0 of 1001 decisions differ
    rng = np.random.default_rng(24)
    decisions = []
    for _ in range(1000):
        n = int(rng.choice(auxfn._N_CHOICES))
        beta = max(float(np.exp(rng.uniform(0.0, math.log(50.0)))), n / 4.0)
        nu = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.49))))
        while True:
            decisions.append(_gates_differ(beta, nu, n))
            if _scanned_i8_margin(beta, nu, n) <= -1e-9:
                break
            nu *= 0.5
    assert len(decisions) > 1000 and not any(decisions)


def test_i8_gate_differs_from_the_scan_only_at_its_edge():
    # nu within 1e-9 to 1e-4 of the located edge of the admitted set: the scan misses
    # the peak by up to 8.2e-6, so 52 of these 252 decisions differ
    rng = np.random.default_rng(26)
    decisions = []
    for _ in range(300):
        n = int(rng.choice(auxfn._N_CHOICES))
        beta = max(float(np.exp(rng.uniform(0.0, math.log(50.0)))), n / 4.0)
        if auxfn.i8_region_ok(beta, 0.49, n):
            continue
        lo, hi = 1e-3, 0.49     # the gate admits lo and refuses hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if auxfn.i8_region_ok(beta, mid, n) else (lo, mid)
        decisions += [_gates_differ(beta, lo * f, n)
                      for f in (1 - 1e-4, 1 - 1e-6, 1 - 1e-9, 1 + 1e-9, 1 + 1e-6, 1 + 1e-4)]
    assert len(decisions) > 200 and 0 < sum(decisions) < len(decisions)


def test_i8_sampler_halves_refused_groups_without_drawing():
    rng = np.random.default_rng(25)
    b, L, nu, n, x = auxfn._sample_I8(rng, 512 * 200)
    # the same draws with no gate: the sampler takes nothing more from the stream
    ref = np.random.default_rng(25)
    n0 = ref.choice(auxfn._N_CHOICES, size=200)
    b0 = np.maximum(auxfn._log_uniform(ref, *auxfn._BETA_RANGE, 200), n0 / 4.0)
    nu0 = auxfn._log_uniform(ref, 1e-3, 0.49, 200)
    assert np.array_equal(L, auxfn._log_uniform(ref, *auxfn._L_RANGE, L.size))
    assert np.array_equal(x, auxfn._log_uniform(ref, *auxfn._X_RANGE, x.size))
    assert rng.bit_generator.state == ref.bit_generator.state
    halved = 0
    for i in range(200):    # the per-group loop: halve nu until the gate admits it
        want = float(nu0[i])
        while not auxfn.i8_region_ok(float(b0[i]), want, int(n0[i])):
            want *= 0.5
            halved += 1
        assert (b[512 * i], nu[512 * i], n[512 * i]) == (b0[i], want, n0[i])
    assert halved > 0


def test_run_catalogue_rows():
    rows = run_catalogue(ids=["I1", "I7"], samples=5000, seed=1)
    assert [r.ineq_id for r in rows] == ["I1", "I7"]
    assert all(r.violations == 0 for r in rows)
    assert all(r.samples == 5000 for r in rows)
    assert all(r.worst_margin > -1e-12 for r in rows)


def test_search_deterministic():
    a = run_catalogue(ids=["I6"], samples=4000, seed=42)[0]
    b = run_catalogue(ids=["I6"], samples=4000, seed=42)[0]
    assert a.worst_margin == b.worst_margin


# --- located constants, one lookup per run of equal parameters ---------------


def _per_sample(lookup, *cols):
    """The per-sample loop that ``auxfn._per_run`` replaced, as a reference."""
    cols = np.broadcast_arrays(*cols)
    cast = [int if c.dtype.kind in "iu" else float for c in cols]
    out = np.array([np.atleast_1d(lookup(*(k(c.flat[i]) for k, c in zip(cast, cols))))
                    for i in range(cols[0].size)])
    return tuple(v.reshape(cols[0].shape) for v in out.T)


def _typed_lookup(calls):
    def lookup(beta, nu, n):
        # a lookup takes Python scalars, as a per-sample loop passes them
        assert type(beta) is float and type(nu) is float and type(n) is int
        calls.append((beta, nu, n))
        return beta * nu + n, beta - n
    return lookup


@pytest.mark.parametrize("b, nu, n, runs", [
    # tiled columns
    (np.repeat([1.5, 2.5, 7.0], [4, 1, 3]), np.repeat([0.1, 0.2, 0.3], [4, 1, 3]),
     np.repeat([3, 4, 5], [4, 1, 3]), 3),
    # every run of length 1
    (np.linspace(1.0, 2.0, 6), np.full(6, 0.25), np.full(6, 3), 6),
    # two adjacent groups drawn with equal parameters form one run
    (np.full(8, 2.0), np.full(8, 0.3), np.full(8, 4), 1),
    # equal beta and nu, a new run where only n changes
    (np.full(5, 2.0), np.full(5, 0.3), np.array([3, 3, 4, 4, 3]), 3),
    # scalar nu and n broadcast against the beta column
    (np.repeat([1.5, 9.0], [3, 2]), 0.3, 4, 2),
    # 0-d input, as check_inequality passes it
    (np.asarray(2.0), np.asarray(0.3), np.asarray(5), 1),
], ids=["tiled", "length-1", "equal-adjacent", "n-only", "broadcast", "0-d"])
def test_per_run_matches_per_sample_lookup(b, nu, n, runs):
    calls = []
    got = auxfn._per_run(_typed_lookup(calls), np.asarray(b, dtype=float),
                         np.asarray(nu, dtype=float), np.asarray(n, dtype=int))
    want = _per_sample(_typed_lookup([]), np.asarray(b, dtype=float),
                       np.asarray(nu, dtype=float), np.asarray(n, dtype=int))
    assert len(calls) == runs
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.shape == w.shape == np.shape(b)
        assert g.tobytes() == w.tobytes()


def test_catalogue_rows_equal_per_sample_lookup(monkeypatch):
    # one CPU keeps the scans in this process, where the patched _per_run is seen;
    # pool workers that do not fork would import the unpatched one
    monkeypatch.setattr(auxfn.os, "cpu_count", lambda: 1)
    rows = run_catalogue(["I9", "I11"], samples=60_000)
    # the lookups keep no cache, so the reference loop memoizes its own
    monkeypatch.setattr(auxfn, "_per_run",
                        lambda lookup, *cols: _per_sample(functools.cache(lookup), *cols))
    assert rows == run_catalogue(["I9", "I11"], samples=60_000)


@pytest.mark.parametrize("ineq_id, lookup_name, draw", [
    ("I9", "locate_tilde_constants", auxfn._sample_tilde),
    ("I11", "locate_chain_constant", auxfn._sample_pinned),
])
def test_scan_looks_up_once_per_parameter_group(monkeypatch, ineq_id, lookup_name, draw):
    calls, groups = [], []
    lookup = getattr(auxfn, lookup_name)

    def counting(*args):
        calls.append(args)
        return lookup(*args)

    def sampler(rng, size):
        b, L, nu, n, x = draw(rng, size)
        groups.append(len(set(zip(b.tolist(), nu.tolist(), n.tolist()))))
        return b, L, nu, n, x

    monkeypatch.setattr(auxfn, lookup_name, counting)
    assert find_counterexample(ineq_id, sampler=sampler, budget=40_000) is None
    assert len(calls) == sum(groups) < 100


# --- the catalogue's scans on a process pool ----------------------------------


@pytest.fixture
def pool_sizes(monkeypatch):
    """``max_workers`` of every catalogue pool started, one entry per pool."""
    import concurrent.futures as cf

    sizes = []

    class RecordingPool(cf.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_pooled_catalogue_rows_equal_serial_rows(monkeypatch, pool_sizes):
    # one full block and a partial one per scan; I9 and I11 look up located constants
    ids = ["I2", "I9", "I11", "I12"]
    samples = auxfn._CHUNK + 1234
    monkeypatch.setattr(auxfn.os, "cpu_count", lambda: 3)
    pooled = run_catalogue(ids, samples=samples, seed=5)
    assert pool_sizes == [3]
    monkeypatch.setattr(auxfn.os, "cpu_count", lambda: 1)
    serial = run_catalogue(ids, samples=samples, seed=5)
    assert pool_sizes == [3]
    assert [r.ineq_id for r in pooled] == ids
    assert pooled == serial
    assert [r.worst_margin.hex() for r in pooled] == [r.worst_margin.hex() for r in serial]


@pytest.mark.parametrize("cpus, samples", [
    (2, auxfn._CHUNK - 1), (8, 5000), (1, 2 * auxfn._CHUNK),
])
def test_catalogue_stays_serial_below_two_workers_or_one_block(monkeypatch, pool_sizes,
                                                                 cpus, samples):
    monkeypatch.setattr(auxfn.os, "cpu_count", lambda: cpus)
    assert len(run_catalogue(["I12", "LIMITS"], samples=samples)) == 2
    assert len(run_catalogue(["I12"], samples=auxfn._CHUNK)) == 1
    assert pool_sizes == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_catalogue_rejects_unknown_id_before_any_scan(monkeypatch, pool_sizes, cpus):
    monkeypatch.setattr(auxfn.os, "cpu_count", lambda: cpus)
    with pytest.raises(ValueError, match=r"^unknown inequality 'I99' \(known: I1, I2, "):
        run_catalogue(["I1", "I99"], samples=auxfn._CHUNK)
    assert pool_sizes == []


# --- each family evaluates only the branches its points take ------------------

# each family's arguments, picked from (beta, L, nu, n, x)
FAMILIES = {
    "phi": (auxfn._phi, lambda b, L, nu, n, x: (b, L, x)),
    "G": (auxfn._G, lambda b, L, nu, n, x: (b, L, x)),
    "H": (auxfn._H, lambda b, L, nu, n, x: (b, L, x)),
    "f": (auxfn._f, lambda b, L, nu, n, x: (b, L, n, x)),
    "tphi": (auxfn._tphi, lambda b, L, nu, n, x: (b, L, nu, x)),
    "tG": (auxfn._tG, lambda b, L, nu, n, x: (b, L, nu, x)),
    "tH": (auxfn._tH, lambda b, L, nu, n, x: (b, L, nu, x)),
    "tf": (auxfn._tf, lambda b, L, nu, n, x: (b, L, nu, n, x)),
}


def _where_both(x, L, inner, outer):
    """Both branches at every point, then ``np.where``: the reference for ``_piecewise``."""
    return np.where(x <= L, inner(), outer())


def _assert_family_bits(name, b, L, nu, n, x):
    family, pick = FAMILIES[name]
    args = pick(b, L, nu, n, x)
    with np.errstate(all="ignore"):     # extreme draws overflow, alike on both paths
        got = np.asarray(family(*args))
        with mock.patch.object(auxfn, "_piecewise", _where_both):
            want = family(*args)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=100, deadline=None)
@given(beta=BETAS, L=ELLS, nu=NUS, n=st.sampled_from([3, 4, 5, 6, 8, 10]),
       s=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8),
       part=st.sampled_from(["mixed", "inner", "outer"]), arrays=st.booleans())
def test_family_equals_where_of_both_branches(name, beta, L, nu, n, s, part, arrays):
    s = np.array(s)
    # x = L s: s <= 1 rounds to x <= L and s > 1 + 1e-3 to x > L
    s = {"mixed": np.concatenate(([0.5, 2.0], s)), "inner": np.minimum(s, 1.0),
         "outer": 1.0 + s}[part]
    x = L * s
    params = (beta, L, nu, n)
    if arrays:
        params = tuple(np.full(x.shape, v) for v in params)
    _assert_family_bits(name, *params, x)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("beta, nu, n", [(1.0, 0.25, 3), (7.5, 0.45, 4), (50.0, 0.7, 10)])
def test_family_on_the_sup_grid_equals_where_of_both_branches(name, beta, nu, n):
    # every grid point s > 1 takes the outer branch, so only that one is evaluated
    assert (SUP_GRID > 1.0).all()
    _assert_family_bits(name, beta, 1.0, nu, n, SUP_GRID)


def test_piecewise_calls_only_the_branches_taken():
    calls = []

    def branch(tag):
        def evaluate():
            calls.append(tag)
            return np.full(3, 1.0 if tag == "inner" else 2.0)
        return evaluate

    for x, want, taken in (([0.1, 0.5, 1.0], [1.0, 1.0, 1.0], ["inner"]),
                           ([1.5, 2.0, 3.0], [2.0, 2.0, 2.0], ["outer"]),
                           ([0.5, 1.0, 1.5], [1.0, 1.0, 2.0], ["inner", "outer"])):
        calls.clear()
        got = auxfn._piecewise(np.array(x), 1.0, branch("inner"), branch("outer"))
        assert got.tolist() == want and calls == taken
    # a branch that does not depend on x is broadcast to the points, as np.where does
    got = auxfn._piecewise(np.array([2.0, 3.0]), 1.0, lambda: 0.0, lambda: np.float64(5.0))
    assert got.tolist() == [5.0, 5.0]


def _unsplit_scan(ineq_id, budget, seed, out_of_region):
    """``auxfn._scan`` (without stopping early) as it was before it split each block by
    branch: the sides see the whole block at once."""
    ineq = auxfn._inequality(ineq_id)
    sampler = ineq.sample_outside if out_of_region else ineq.sample
    rng = np.random.default_rng(seed)
    remaining, worst, violations, first = budget, math.inf, 0, None
    while remaining > 0:
        size = min(auxfn._CHUNK, remaining)
        remaining -= size
        b, L, nu, n, x = sampler(rng, size)
        z = np.ones_like(x) if ineq_id == "I12" else np.maximum(np.maximum(x, L), 1e-300)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lhs, rhs = ineq.sides(b, L / z, nu, n, x / z, *ineq.constants(b, nu, n))
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst = min(worst, float(((rhs - lhs) / scale).min()))
        bad = lhs > rhs + auxfn._REL_TOL * scale
        violations += int(np.count_nonzero(bad))
        if bad.any() and first is None:
            i = int(np.argmax(bad))
            first = auxfn.Violation(
                ineq_id, AuxParams(float(b[i]), float(L[i]), float(nu[i]), int(n[i])),
                float(x[i]), float(lhs[i]), float(rhs[i]))
    return auxfn.CatalogueRow(ineq_id, budget - remaining, violations, worst, first)


@pytest.mark.parametrize("ineq_id, out_of_region",
                         [(i, False) for i in auxfn.catalogue_ids()] + [("I2", True), ("I4", True)],
                         ids=auxfn.catalogue_ids() + ["I2-sharpness", "I4-sharpness"])
def test_split_scan_equals_the_unsplit_block_loop(monkeypatch, ineq_id, out_of_region):
    # three blocks; the probes' rows count every violation and keep the first
    got = auxfn._scan(ineq_id, None, 60_000, 7, out_of_region, stop_early=False)
    monkeypatch.setattr(auxfn, "_piecewise", _where_both)
    want = _unsplit_scan(ineq_id, 60_000, 7, out_of_region)
    assert (got.violations > 0) == out_of_region
    assert repr(got) == repr(want)      # repr keeps every float's bits, and -0.0 apart
