import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslink import (
    BalancedForm,
    CovMat2,
    OneModeChannel,
    SqueezeParam,
    TwoModeChannel,
    apply_one_mode,
    apply_two_mode,
    balanced_physicality_check,
    log_negativity,
    loss_channel,
    make_tms,
    min_sympl_eig_pt,
    physicality_check,
)
from gausslink.core import R_MAX
from gausslink.sampling import generator, random_balanced_states

from conftest import random_covmat_channel


class TestSqueezeParam:
    def test_db_round_trip(self):
        sp = SqueezeParam.from_db(5.0)
        assert sp.db == pytest.approx(5.0, abs=1e-12)

    def test_five_db_is_r_058(self):
        # the usual "5 dB" quote corresponds to r = 0.58 to two decimals
        assert SqueezeParam.from_db(5.0).r == pytest.approx(0.58, abs=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParam(-0.1)
        with pytest.raises(ValueError):
            make_tms(-1.0)

    def test_beyond_r_max_rejected(self):
        assert SqueezeParam(R_MAX).r == R_MAX
        with pytest.raises(ValueError, match="at most"):
            SqueezeParam(math.nextafter(R_MAX, math.inf))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            SqueezeParam(bad)
        with pytest.raises(ValueError, match="finite and >= 0"):
            make_tms(bad)


class TestMakeTms:
    def test_zero_squeezing_is_vacuum(self):
        np.testing.assert_allclose(make_tms(0.0).m, 0.5 * np.eye(4), atol=0.0)

    def test_r058_matches_direct_evaluation(self):
        v = make_tms(0.58)
        s = BalancedForm.from_cov(v)
        assert s.a == pytest.approx(math.cosh(1.16) / 2.0, rel=1e-15)
        assert s.b == pytest.approx(math.cosh(1.16) / 2.0, rel=1e-15)
        assert s.c == pytest.approx(math.sinh(1.16) / 2.0, rel=1e-15)
        # pure-state identity
        assert s.a**2 - s.c**2 == pytest.approx(0.25, rel=1e-14)

    def test_r092_log_negativity_closed_form(self):
        s = BalancedForm.from_cov(make_tms(0.92))
        assert log_negativity(s) == pytest.approx(2.0 * 0.92 / math.log(2.0), rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=2.5))
    @settings(max_examples=60, deadline=None)
    def test_log_negativity_is_2r_over_ln2(self, r):
        # above r ~ 3 the cosh/sinh cancellation inherent to the (a, b, c)
        # representation exceeds the 1e-10 budget, so stay below it
        s = BalancedForm.from_cov(make_tms(r))
        assert abs(log_negativity(s) - 2.0 * r / math.log(2.0)) < 1e-10


class TestChannels:
    def test_identity_channel(self, rng):
        v = make_tms(0.7)
        out = apply_two_mode(TwoModeChannel(np.eye(4), np.zeros((4, 4))), v)
        np.testing.assert_allclose(out.m, v.m, atol=0.0)

    def test_depolarizing_to_vacuum(self):
        ch = TwoModeChannel(np.zeros((4, 4)), 0.5 * np.eye(4))
        out = apply_two_mode(ch, make_tms(1.3))
        np.testing.assert_allclose(out.m, 0.5 * np.eye(4), atol=0.0)

    def test_composition_associativity(self, rng):
        # applying (T1,N1) then (T2,N2) == applying (T2 T1, T2 N1 T2^t + N2)
        for _ in range(1000):
            t1, n1 = random_covmat_channel(rng)
            t2, n2 = random_covmat_channel(rng)
            v = CovMat2(0.5 * np.eye(4))
            seq = apply_two_mode(
                TwoModeChannel(t2, n2), apply_two_mode(TwoModeChannel(t1, n1), v)
            )
            combo = apply_two_mode(TwoModeChannel(t2 @ t1, t2 @ n1 @ t2.T + n2), v)
            np.testing.assert_allclose(seq.m, combo.m, rtol=1e-12, atol=1e-12)

    def test_loss_channel_endpoints(self):
        ch = loss_channel(1.0)
        np.testing.assert_allclose(ch.T, np.eye(2), atol=0.0)
        np.testing.assert_allclose(ch.N, np.zeros((2, 2)), atol=0.0)
        ch = loss_channel(0.0)
        np.testing.assert_allclose(ch.T, np.zeros((2, 2)), atol=0.0)
        np.testing.assert_allclose(ch.N, 0.5 * np.eye(2), atol=0.0)

    def test_loss_channel_two_km_fiber(self):
        # 2 km at 0.18 dB/km
        tau = 10.0 ** (-0.36 / 10.0)
        ch = loss_channel(tau)
        np.testing.assert_allclose(ch.T, math.sqrt(tau) * np.eye(2), rtol=1e-15)

    def test_loss_channel_rejects_out_of_range(self):
        for tau in (-0.1, 1.1):
            with pytest.raises(ValueError):
                loss_channel(tau)

    def test_loss_on_mode1_of_balanced_form(self, rng):
        # (a, b, c) -> (tau a + (1-tau)/2, b, sqrt(tau) c)
        for _ in range(50):
            a, b, c = random_balanced_states(rng, 1)[0]
            tau = rng.uniform(0.0, 1.0)
            v = apply_one_mode(loss_channel(tau), BalancedForm(a, b, c).to_cov(), mode=1)
            s = BalancedForm.from_cov(v)
            assert s.a == pytest.approx(tau * a + (1.0 - tau) / 2.0, rel=1e-12)
            assert s.b == pytest.approx(b, rel=1e-15)
            assert s.c == pytest.approx(math.sqrt(tau) * c, rel=1e-12, abs=1e-15)

    def test_full_loss_gives_vacuum_product(self):
        s0 = BalancedForm.from_cov(make_tms(0.8))
        v = apply_one_mode(loss_channel(0.0), s0.to_cov(), mode=1)
        s = BalancedForm.from_cov(v)
        assert (s.a, s.c) == (0.5, 0.0)
        assert s.b == s0.b

    def test_invalid_mode_index(self):
        with pytest.raises(ValueError):
            apply_one_mode(loss_channel(0.5), make_tms(0.1), mode=3)

    def test_loss_monotonicity_of_log_negativity(self):
        s0 = BalancedForm.from_cov(make_tms(1.0))
        values = []
        for tau in np.linspace(1.0, 0.0, 21):
            v = apply_one_mode(loss_channel(tau), s0.to_cov(), mode=1)
            values.append(log_negativity(BalancedForm.from_cov(v)))
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


class TestEntanglementMeasures:
    def test_vacuum_is_at_boundary(self):
        assert min_sympl_eig_pt(BalancedForm(0.5, 0.5, 0.0)) == 0.5
        assert log_negativity(BalancedForm(0.5, 0.5, 0.0)) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.58, 1.3])
    def test_tms_nu_closed_form(self, r):
        s = BalancedForm.from_cov(make_tms(r))
        assert min_sympl_eig_pt(s) == pytest.approx(math.exp(-2.0 * r) / 2.0, rel=1e-13)

    def test_uncorrelated_is_separable(self, rng):
        for _ in range(25):
            a, b = 0.5 + rng.exponential(1.0, 2)
            s = BalancedForm(a, b, 0.0)
            assert min_sympl_eig_pt(s) == pytest.approx(min(a, b))
            assert log_negativity(s) == 0.0

    def test_tms_058_log_negativity(self):
        s = BalancedForm.from_cov(make_tms(0.58))
        assert log_negativity(s) == pytest.approx(2.0 * 0.58 / math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "s",
        [
            BalancedForm(math.nan, 1.0, 0.0),
            BalancedForm(1.0, 1.0, math.nan),
            BalancedForm(0.1, 0.1, 0.2),  # nu = -0.1
        ],
    )
    def test_nan_or_nonpositive_eigenvalue_rejected(self, s):
        with pytest.raises(ValueError, match="is not > 0"):
            log_negativity(s)


class TestPhysicality:
    def test_vacuum_physical(self):
        assert physicality_check(CovMat2(0.5 * np.eye(4)))

    def test_uncertainty_violation_detected(self):
        assert not physicality_check(CovMat2(0.1 * np.eye(4)))

    def test_balanced_check_matches_matrix_check(self, rng):
        # closed-form balanced test against the Hermitian eigenvalue test
        for _ in range(300):
            a, b = 0.4 + rng.exponential(1.0, 2)
            c = rng.uniform(-1.2, 1.2) * math.sqrt(a * b)
            s = BalancedForm(a, b, c)
            assert balanced_physicality_check(s) == physicality_check(s.to_cov())

    def test_random_drawn_states_are_physical(self, rng):
        for a, b, c in random_balanced_states(rng, 500):
            assert physicality_check(BalancedForm(a, b, c).to_cov())


class TestTypes:
    def test_covmat_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            CovMat2(m)

    def test_covmat_is_immutable(self):
        v = make_tms(0.3)
        with pytest.raises((ValueError, AttributeError)):
            v.m[0, 0] = 2.0

    def test_from_cov_rejects_unbalanced(self):
        m = 0.5 * np.eye(4)
        m[0, 1] = m[1, 0] = 0.2
        with pytest.raises(ValueError):
            BalancedForm.from_cov(CovMat2(m))

    @given(
        st.floats(min_value=0.5, max_value=1e6),
        st.floats(min_value=0.5, max_value=1e6),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_balanced_round_trip_is_exact(self, a, b, c):
        s = BalancedForm(a, b, c)
        s2 = BalancedForm.from_cov(s.to_cov())
        assert (s2.a, s2.b, s2.c) == (a, b, c)

    def test_channel_noise_must_be_symmetric(self):
        n = np.zeros((4, 4))
        n[0, 1] = 1e-3
        with pytest.raises(ValueError):
            TwoModeChannel(np.eye(4), n)
        with pytest.raises(ValueError):
            OneModeChannel(np.eye(2), n[:2, :2])

    @pytest.mark.parametrize("cls, n", [(TwoModeChannel, 4), (OneModeChannel, 2)])
    def test_channel_keeps_a_read_only_copy(self, cls, n):
        T, N = np.eye(n), 0.25 * np.eye(n)
        ch = cls(T, N)
        T[0, 0] = N[0, 0] = 7.0
        assert ch.T[0, 0] == 1.0 and ch.N[0, 0] == 0.25
        for m in (ch.T, ch.N):
            with pytest.raises(ValueError):
                m[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_matrices_reject_non_finite_entries(self, bad):
        m = 0.5 * np.eye(4)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CovMat2(m)
        for n, cls in ((4, TwoModeChannel), (2, OneModeChannel)):
            ok = np.eye(n)
            with pytest.raises(ValueError, match="non-finite"):
                cls(m[:n, :n], ok)
            with pytest.raises(ValueError, match="non-finite"):
                cls(ok, m[:n, :n])
