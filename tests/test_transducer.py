import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausslink import (
    CovMat2,
    DEFAULT_RATES,
    DeviceCaps,
    DptParams,
    InvalidOperatingModeError,
    PhysicalRates,
    SingularOperatingPointError,
    apply_two_mode,
    conversion_channel,
    dpt_two_mode_channel,
    fold_external_loss,
    physicality_check,
    stability_ok,
)
from gausslink.sampling import generator, random_red_params, random_source_params
from gausslink.sources import MoKind
from gausslink.thresholds import _BlueNode
from gausslink.transducer import C_MAX, _blue_bound, _blue_bound_lines


def reference_channel(p):
    """Independent re-transcription of the channel matrices.

    Deliberately written in a different style (block assembly via
    np.block) from the production code so transcription slips cannot
    cancel.
    """
    sa, sb = p.sigma_a, p.sigma_b
    ca, cb, ta, tb, nth = p.c_a, p.c_b, p.tau_a, p.tau_b, p.n_th
    den = 1.0 - sa * ca - sb * cb
    g = math.sqrt(ta * tb * ca * cb)
    T = (2.0 / den) * np.block(
        [
            [ta * (1 - sb * cb) * np.eye(2), g * np.diag([sa, sb])],
            [g * np.diag([sb, sa]), tb * (1 - sa * ca) * np.eye(2)],
        ]
    ) - np.eye(4)
    alpha = ta * ((1 - ta) * (1 - sb * cb) ** 2 + ca * (1 + 2 * nth + cb * (1 - tb)))
    beta = tb * ((1 - tb) * (1 - sa * ca) ** 2 + cb * (1 + 2 * nth + ca * (1 - ta)))
    gamma = g * (2 * nth - sa * sb * (1 + sb * ta + sa * tb + ca * (1 - tb) + cb * (1 - ta)))
    N = (2.0 / den**2) * np.block(
        [
            [alpha * np.eye(2), gamma * np.diag([sa * sb, 1])],
            [gamma * np.diag([sa * sb, 1]), beta * np.eye(2)],
        ]
    )
    return T, N


def random_stable_params(rng):
    """Any pump-sign configuration, stable with a healthy margin."""
    pick = rng.integers(3)
    if pick == 0:
        return random_red_params(rng)
    return random_source_params(rng, MoKind.IO if pick == 1 else MoKind.IM)


class TestDptChannel:
    def test_zero_cooperativity_unit_transmissivity_is_identity(self):
        for sigmas in ((-1, -1), (1, -1), (-1, 1)):
            ch = dpt_two_mode_channel(DptParams(0, 0, 1, 1, 0, *sigmas))
            np.testing.assert_allclose(ch.T, np.eye(4), atol=1e-15)
            np.testing.assert_allclose(ch.N, np.zeros((4, 4)), atol=1e-15)

    def test_zero_cooperativity_preserves_vacuum(self):
        # with C = 0 the resonator acts as a passive mirror: vacuum in, vacuum out
        ch = dpt_two_mode_channel(DptParams(0, 0, 0.3, 0.9, 5.0))
        out = apply_two_mode(ch, CovMat2(0.5 * np.eye(4)))
        np.testing.assert_allclose(out.m, 0.5 * np.eye(4), atol=1e-15)

    def test_zero_cooperativity_unit_transmissivity_preserves_tms(self):
        from gausslink import make_tms

        ch = dpt_two_mode_channel(DptParams(0, 0, 1, 1, 7.0))
        v = make_tms(0.9)
        np.testing.assert_allclose(apply_two_mode(ch, v).m, v.m, atol=1e-15)

    def test_matches_independent_transcription(self, rng):
        for _ in range(300):
            p = random_stable_params(rng)
            ch = dpt_two_mode_channel(p)
            T, N = reference_channel(p)
            np.testing.assert_allclose(ch.T, T, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(ch.N, N, rtol=1e-14, atol=1e-14)

    def test_noise_symmetric_and_vacuum_maps_physical(self, rng):
        vac = CovMat2(0.5 * np.eye(4))
        for _ in range(10000):
            p = random_stable_params(rng)
            ch = dpt_two_mode_channel(p)
            assert np.array_equal(ch.N, ch.N.T)
            assert physicality_check(apply_two_mode(ch, vac))

    def test_singular_denominator_rejected(self):
        with pytest.raises(SingularOperatingPointError):
            dpt_two_mode_channel(DptParams(2.5, 1.5, 1, 1, 0, sigma_a=1))


class TestConversionChannels:
    def test_zero_cooperativity_replaces_with_vacuum(self):
        ch = conversion_channel("down", DptParams(0, 0, 1, 1, 0))
        np.testing.assert_allclose(ch.T, np.zeros((2, 2)), atol=0.0)
        np.testing.assert_allclose(ch.N, 0.5 * np.eye(2), atol=0.0)

    def test_requires_red_red(self):
        with pytest.raises(InvalidOperatingModeError):
            conversion_channel("down", DptParams(0.5, 0.5, 1, 1, 0, sigma_a=1))

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            conversion_channel("sideways", DptParams(1, 1, 1, 1, 0))

    def test_effective_transmissivity_peaks_at_balanced_cooperativities(self):
        # pushing C_a above C_b lowers |T|^2 again
        c_b = 2.0
        vals = []
        for c_a in np.linspace(0.5, 40.0, 120):
            ch = conversion_channel("down", DptParams(c_a, c_b, 1, 1, 0))
            vals.append(ch.T[0, 0] ** 2)
        peak = int(np.argmax(vals))
        assert 0 < peak < len(vals) - 1
        assert vals[-1] < vals[peak]

    def test_matches_traced_two_mode_marginal(self, rng):
        # down: optical in, microwave out; up: the reverse
        for _ in range(500):
            p = random_red_params(rng)
            full = dpt_two_mode_channel(p)
            for direction, keep, feed in (("down", slice(2, 4), slice(0, 2)),
                                          ("up", slice(0, 2), slice(2, 4))):
                ch = conversion_channel(direction, p)
                t_marg = full.T[keep, feed]
                t_vac = full.T[keep, keep]
                n_marg = 0.5 * t_vac @ t_vac.T + full.N[keep, keep]
                np.testing.assert_allclose(t_marg, ch.T, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(n_marg, ch.N, rtol=1e-12, atol=1e-12)

    def test_scalar_form_on_arrays_equals_float_path(self, rng):
        from gausslink.transducer import _conversion_t_mu

        c_a = 10.0 ** rng.uniform(-3.0, 4.0, 3000)
        c_b = 10.0 ** rng.uniform(-3.0, 4.0, 3000)
        for x, y in ((c_a, c_b), (c_b, c_a)):  # down-, then up-conversion roles
            args = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 5.0))
            t, mu = _conversion_t_mu(x, y, *args)
            for i in range(3000):
                one = _conversion_t_mu(float(x[i]), float(y[i]), *args)
                assert (t[i], mu[i]) == one

    def test_negative_amplitude_is_a_global_phase(self):
        from gausslink import BalancedForm, apply_one_mode, log_negativity, make_tms

        p = DptParams(3.0, 2.0, 0.9, 0.8, 0.1)
        ch = conversion_channel("down", p)
        assert ch.T[0, 0] < 0.0
        flipped = type(ch)(-ch.T, ch.N)
        v1 = BalancedForm.from_cov(apply_one_mode(ch, make_tms(0.6), 2))
        v2 = BalancedForm.from_cov(apply_one_mode(flipped, make_tms(0.6), 2))
        assert log_negativity(v1) == pytest.approx(log_negativity(v2), abs=1e-14)
        assert v1.c == pytest.approx(-v2.c)


class TestStability:
    def test_first_criterion_examples(self):
        rates = DEFAULT_RATES
        ok = DptParams(1.5, 1.0, 1, 1, 0, sigma_a=1)
        bad = DptParams(2.5, 1.0, 1, 1, 0, sigma_a=1)
        assert stability_ok(ok, rates)
        assert not stability_ok(bad, rates)

    def test_second_criterion_slack_for_equal_rates(self):
        # kappa_a = kappa_b and C+ = C- reduces it to 0 < kappa_a + kappa_b
        rates = PhysicalRates(37.0, 37.0, 1.0)
        p = DptParams(0.999, 1.0, 1, 1, 0, sigma_a=1)
        assert stability_ok(p, rates)

    def test_red_red_always_stable(self, rng):
        for _ in range(50):
            assert stability_ok(random_red_params(rng), DEFAULT_RATES)

    def test_monotone_in_blue_cooperativity(self, rng):
        rates = PhysicalRates(1000.0, 50.0, 1.0)
        for _ in range(200):
            c_b = 10.0 ** rng.uniform(-2, 3)
            grid = np.linspace(0.0, c_b + 2.0, 40)
            flags = [
                stability_ok(DptParams(c_a, c_b, 1, 1, 0, sigma_a=1), rates)
                for c_a in grid
            ]
            # once unstable, never stable again at larger C_+
            assert flags == sorted(flags, reverse=True)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            PhysicalRates(0.0, 1.0, 1.0)

    # log-uniform over [5e-324, the largest double]: 2**-1074 up to just below 2**1024
    _RATE = st.floats(-1074.0, 1024.0, exclude_max=True).map(lambda e: 2.0**e)

    @given(_RATE, _RATE, _RATE)
    @example(1e3, 1e-2, 1e-320)  # the scales overflow, and a line would read 0 * inf
    @settings(max_examples=300, deadline=None)
    def test_accepted_rates_give_a_bound(self, kappa_a, kappa_b, gamma_m):
        # every accepted set of rates gives numbers as the bound and its
        # lines on both sides, and a blue node, without a 0 division
        try:
            rates = PhysicalRates(kappa_a, kappa_b, gamma_m)
        except ValueError:
            return
        for optical_blue in (True, False):
            for c_red in (0.0, 1.0, C_MAX):
                assert not math.isnan(_blue_bound(c_red, rates, optical_blue))
            assert not any(map(math.isnan, sum(_blue_bound_lines(rates, optical_blue), ())))
        caps = DeviceCaps(26000.0, 10.0, 0.157, 0.33, 1.0, rates)
        for kind in (MoKind.IO, MoKind.IM):
            _BlueNode(kind, caps, caps.n_th)


class TestParamsValidation:
    def test_double_blue_rejected(self):
        with pytest.raises(ValueError):
            DptParams(1, 1, 1, 1, 0, sigma_a=1, sigma_b=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c_a=-0.1, c_b=0, tau_a=1, tau_b=1, n_th=0),
            dict(c_a=0, c_b=0, tau_a=1.2, tau_b=1, n_th=0),
            dict(c_a=0, c_b=0, tau_a=1, tau_b=1, n_th=-1),
            dict(c_a=0, c_b=0, tau_a=1, tau_b=1, n_th=0, sigma_a=2),
        ],
    )
    def test_ranges_enforced(self, kwargs):
        with pytest.raises(ValueError):
            DptParams(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cls, good",
        [
            (DptParams, dict(c_a=1.0, c_b=2.0, tau_a=0.5, tau_b=0.5, n_th=0.0)),
            (DeviceCaps, dict(d_a=1.0, d_b=2.0, tau_a=0.5, tau_b=0.5, n_th=0.0)),
            (PhysicalRates, dict(kappa_a=100.0, kappa_b=100.0, gamma_m=1.0)),
        ],
        ids=["DptParams", "DeviceCaps", "PhysicalRates"],
    )
    def test_non_finite_fields_rejected(self, cls, good, bad):
        cls(**good)
        for field in good:
            with pytest.raises(ValueError, match=r"(finite|\[0, 1\]).*got"):
                cls(**{**good, field: bad})


class TestFoldExternalLoss:
    def setup_method(self):
        self.caps = DeviceCaps(d_a=10.0, d_b=5.0, tau_a=0.8, tau_b=0.6, n_th=1.0)

    def test_unity_loss_is_noop(self):
        assert fold_external_loss(self.caps, 1.0, (1.0, 1.0)) == (0.8, 0.8)

    def test_equal_split(self):
        tau_e = 0.64
        eff = fold_external_loss(self.caps, tau_e, (0.8, 0.8))
        np.testing.assert_allclose(eff, (0.8 * 0.8, 0.8 * 0.8))

    def test_all_on_one_mode(self):
        eff = fold_external_loss(self.caps, 0.7, (0.7, 1.0))
        np.testing.assert_allclose(eff, (0.8 * 0.7, 0.8))

    def test_bad_product_rejected(self):
        with pytest.raises(ValueError):
            fold_external_loss(self.caps, 0.7, (0.9, 0.9))
