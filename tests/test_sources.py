import math
from dataclasses import replace

import numpy as np
import pytest

from gausslink import (
    DeviceCaps,
    DptParams,
    InvalidOperatingModeError,
    NetworkConfig,
    Topology,
    UnstableOperatingPointError,
    balanced_physicality_check,
    log_negativity,
    min_sympl_eig_pt,
    mm_state,
    mo_state,
    mo_state_via_composition,
)
from gausslink.sampling import random_red_params, random_source_params
from gausslink.sources import MoKind


def printed_magnitudes(kind, p, r):
    """|a|, |b|, |c| of the closed forms as usually printed."""
    ca, cb, ta, tb, n = p.c_a, p.c_b, p.tau_a, p.tau_b, p.n_th
    if kind in (MoKind.EO, MoKind.EM):
        s = 1.0 + ca + cb
        tms = math.cosh(2 * r) / 2
        conv = 0.5 + 2 * (tb * cb if kind is MoKind.EO else ta * ca) * (
            2 * n + (ta * ca if kind is MoKind.EO else tb * cb) * (math.cosh(2 * r) - 1)
        ) / s**2
        a, b = (tms, conv) if kind is MoKind.EO else (conv, tms)
        c = math.sqrt(ta * tb * ca * cb) * math.sinh(2 * r) / s
        return a, b, c
    d = 1.0 - ca + cb if kind is MoKind.IO else 1.0 + ca - cb
    shift = (1.0, 0.0) if kind is MoKind.IO else (0.0, 1.0)
    a = 0.5 + 4 * ta * ca * (cb + n + shift[0]) / d**2
    b = 0.5 + 4 * tb * cb * (ca + n + shift[1]) / d**2
    c = 2 * (ca + cb + 2 * n + 1) * math.sqrt(ta * tb * ca * cb) / d**2
    return a, b, c


class TestClosedForms:
    def test_magnitudes_match_printed_forms(self, rng):
        for kind in MoKind:
            for _ in range(200):
                p = random_source_params(rng, kind)
                r = rng.uniform(0.0, 1.2)
                s = mo_state(kind, p, r)
                a, b, c = printed_magnitudes(kind, p, r)
                assert s.a == pytest.approx(a, rel=1e-13)
                assert s.b == pytest.approx(b, rel=1e-13)
                assert abs(s.c) == pytest.approx(c, rel=1e-13, abs=1e-15)

    def test_cross_correlation_sign_is_negative(self, rng):
        # channel-composition convention: c <= 0 for every kind
        for kind in MoKind:
            for _ in range(50):
                p = random_source_params(rng, kind)
                assert mo_state(kind, p, 0.7).c <= 0.0

    def test_log_negativity_invariant_under_c_flip(self, rng):
        from gausslink import BalancedForm

        for kind in MoKind:
            p = random_source_params(rng, kind)
            s = mo_state(kind, p, 0.9)
            assert log_negativity(s) == log_negativity(BalancedForm(s.a, s.b, -s.c))

    def test_eo_without_squeezing_is_separable_product(self, rng):
        p = random_red_params(rng)
        s = mo_state(MoKind.EO, p, 0.0)
        assert s.a == 0.5
        assert s.c == 0.0
        assert log_negativity(s) == 0.0


class TestArrayPath:
    def test_equals_float_path_bit_for_bit(self, rng):
        # enough points that a sqrt that is not correctly rounded on floats
        # (about 1 in 1000 for libm's pow) shows up in c
        from gausslink.sources import _mo_excess

        c_a = 10.0 ** rng.uniform(-3.0, 4.0, 3000)
        c_b = 10.0 ** rng.uniform(-3.0, 4.0, 3000)
        for kind in MoKind:
            args = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 5.0),
                    rng.uniform(0.0, 1.2))
            many = _mo_excess(kind, c_a, c_b, *args)
            for i in range(3000):
                one = _mo_excess(kind, float(c_a[i]), float(c_b[i]), *args)
                assert [float(np.broadcast_to(v, c_a.shape)[i]) for v in many] == list(one)


class TestOracleEquivalence:
    def test_matches_composition(self, rng):
        for kind in MoKind:
            for _ in range(500):
                p = random_source_params(rng, kind)
                r = rng.uniform(0.0, 1.2)
                fast = mo_state(kind, p, r)
                slow = mo_state_via_composition(kind, p, r)
                np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_extrinsic_duality(self, rng):
        # exchanging modes and the a/b roles maps EO onto EM
        for _ in range(100):
            p = random_red_params(rng)
            swapped = DptParams(p.c_b, p.c_a, p.tau_b, p.tau_a, p.n_th)
            r = rng.uniform(0.0, 1.2)
            eo = mo_state(MoKind.EO, p, r)
            em = mo_state(MoKind.EM, swapped, r)
            np.testing.assert_allclose((eo.a, eo.b, eo.c), (em.b, em.a, em.c), rtol=1e-13)

    def test_intrinsic_duality(self, rng):
        for _ in range(100):
            p = random_source_params(rng, MoKind.IO)
            swapped = DptParams(
                p.c_b, p.c_a, p.tau_b, p.tau_a, p.n_th, sigma_a=-1, sigma_b=1
            )
            io = mo_state(MoKind.IO, p)
            im = mo_state(MoKind.IM, swapped)
            np.testing.assert_allclose((io.a, io.b, io.c), (im.b, im.a, im.c), rtol=1e-13)


class TestEntanglementConditions:
    def _boundary_n_th(self, kind, p, r):
        """Thermal occupancy where the state's log-negativity vanishes."""
        lo, hi = 0.0, 10.0 * (p.tau_a * p.c_a + p.tau_b * p.c_b) + 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            q = DptParams(p.c_a, p.c_b, p.tau_a, p.tau_b, mid, p.sigma_a, p.sigma_b)
            if min_sympl_eig_pt(mo_state(kind, q, r)) < 0.5:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_eo_boundary_at_tau_a_c_a(self, rng):
        for _ in range(20):
            p = random_red_params(rng)
            boundary = self._boundary_n_th(MoKind.EO, p, 0.8)
            assert boundary == pytest.approx(p.tau_a * p.c_a, rel=1e-9)

    def test_em_boundary_at_tau_b_c_b(self, rng):
        for _ in range(20):
            p = random_red_params(rng)
            boundary = self._boundary_n_th(MoKind.EM, p, 0.8)
            assert boundary == pytest.approx(p.tau_b * p.c_b, rel=1e-9)

    def test_intrinsic_always_entangled(self, rng):
        for kind in (MoKind.IO, MoKind.IM):
            for _ in range(200):
                p = replace(random_source_params(rng, kind), n_th=rng.uniform(0.0, 50.0))
                if p.c_a == 0.0 or p.c_b == 0.0:
                    continue
                assert log_negativity(mo_state(kind, p)) > 0.0

    def test_states_are_physical(self, rng):
        for kind in MoKind:
            for _ in range(2500):
                p = random_source_params(rng, kind)
                s = mo_state(kind, p, rng.uniform(0.0, 1.2))
                assert s.a >= 0.5 - 1e-12 and s.b >= 0.5 - 1e-12
                assert balanced_physicality_check(s)


class TestValidation:
    def test_wrong_sigmas_rejected(self):
        red = DptParams(1.0, 1.0, 0.9, 0.9, 0.1)
        with pytest.raises(InvalidOperatingModeError):
            mo_state(MoKind.IO, red)
        blue = DptParams(1.0, 1.0, 0.9, 0.9, 0.1, sigma_a=1)
        with pytest.raises(InvalidOperatingModeError):
            mo_state(MoKind.EO, blue)

    def test_unstable_intrinsic_rejected(self):
        p = DptParams(5.0, 1.0, 0.9, 0.9, 0.1, sigma_a=1)  # violates C_a < C_b + 1
        with pytest.raises(UnstableOperatingPointError):
            mo_state(MoKind.IO, p)
        with pytest.raises(UnstableOperatingPointError):
            mo_state_via_composition(MoKind.IO, p)

    @pytest.mark.parametrize(
        "kind, c_a, c_b", [(MoKind.IO, 5.0, 1.0), (MoKind.IM, 1.0, 5.0)], ids=["IO", "IM"]
    )
    def test_unstable_message_matches_mm_state(self, kind, c_a, c_b):
        caps = DeviceCaps(10.0, 10.0, 0.9, 0.9, 0.1)
        sigmas = (1, -1) if kind is MoKind.IO else (-1, 1)
        with pytest.raises(UnstableOperatingPointError) as mo:
            mo_state(kind, caps.params(c_a, c_b, *sigmas))
        with pytest.raises(UnstableOperatingPointError) as mm:
            mm_state(Topology.swap_sym(kind), NetworkConfig(caps, c_a, c_b, c_a, c_b))
        name, value = ("C_a", c_a) if kind is MoKind.IO else ("C_b", c_b)
        assert str(mo.value) == str(mm.value)
        assert str(mo.value).startswith(f"{kind.name} source unstable: {name} = {value} violates")

    def test_intrinsic_ignores_squeezing_argument(self, rng):
        p = random_source_params(rng, MoKind.IM)
        assert mo_state(MoKind.IM, p, 0.0) == mo_state(MoKind.IM, p, 1.0)
