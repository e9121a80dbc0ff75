import itertools
import math
import pickle

import numpy as np
import pytest

from gausslink import (
    BalancedForm,
    DeviceCaps,
    NetworkConfig,
    Topology,
    UnstableOperatingPointError,
    conversion_channel,
    default_loss_split,
    downconvert_mm,
    log_negativity,
    loss_channel,
    loss_slot_count,
    make_tms,
    min_sympl_eig_pt,
    mm_log_negativity,
    mm_state,
    mo_state,
    swap,
)
from gausslink.network import (
    ALL_TOPOLOGIES,
    ASYMMETRIC_SWAP_TOPOLOGIES,
    DOWN_TOPOLOGIES,
    SYMMETRIC_SWAP_TOPOLOGIES,
    SYMMETRIC_TOPOLOGIES,
)
from gausslink import network
from gausslink.sampling import random_balanced_states, random_caps
from gausslink.sources import MoKind, _mo_excess
from gausslink.transducer import STRICT_MARGIN


def epr_measurement_oracle(s1: BalancedForm, s2: BalancedForm) -> np.ndarray:
    """Conditional state after a physical EPR measurement, built from scratch.

    Combines the two optical modes on a balanced beamsplitter, then
    homodynes x on one output and p on the other, applying the standard
    Gaussian conditional update for each measurement.  Returns the 4x4
    covariance matrix of the two remaining (microwave) modes.
    """
    # modes: (opt1, mw1, opt2, mw2), quadrature blocks of 2
    v = np.zeros((8, 8))
    for i, s in ((0, s1), (2, s2)):
        v[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = s.a * np.eye(2)
        v[2 * i + 2 : 2 * i + 4, 2 * i + 2 : 2 * i + 4] = s.b * np.eye(2)
        blk = s.c * np.diag([1.0, -1.0])
        v[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = blk
        v[2 * i + 2 : 2 * i + 4, 2 * i : 2 * i + 2] = blk

    bs = np.eye(8)
    h = 1.0 / math.sqrt(2.0)
    for q in range(2):  # x and p components of the two optical modes (0 and 2)
        i, j = 0 * 2 + q, 2 * 2 + q
        bs[i, i] = bs[j, j] = h
        bs[i, j] = h
        bs[j, i] = -h
    v = bs @ v @ bs.T

    def homodyne(vm, mode, quad):
        idx = [2 * mode, 2 * mode + 1]
        keep = [k for k in range(vm.shape[0]) if k not in idx]
        a = vm[np.ix_(idx, idx)]
        c = vm[np.ix_(keep, idx)]
        b = vm[np.ix_(keep, keep)]
        pi = np.zeros((2, 2))
        pi[quad, quad] = 1.0
        return b - c @ pi @ c.T / a[quad, quad]

    v = homodyne(v, 0, 0)      # x on the first beamsplitter output
    v = homodyne(v, 1, 1)      # p on the second (modes shifted down by one)
    return v


class TestTopologyType:
    def test_fourteen_topologies(self):
        assert len(DOWN_TOPOLOGIES) == 4
        assert len(SYMMETRIC_SWAP_TOPOLOGIES) == 4
        assert len(ASYMMETRIC_SWAP_TOPOLOGIES) == 6
        assert len(ALL_TOPOLOGIES) == 14
        assert len(set(ALL_TOPOLOGIES)) == 14

    def test_swap_pair_is_unordered(self):
        t1 = Topology.swap_asym(MoKind.IM, MoKind.EO)
        t2 = Topology.swap_asym(MoKind.EO, MoKind.IM)
        assert t1 == t2
        assert t1.label == "EO+IM-swap"

    def test_asym_requires_distinct_kinds(self):
        with pytest.raises(ValueError):
            Topology.swap_asym(MoKind.EO, MoKind.EO)

    @pytest.mark.parametrize("scheme, kinds", [
        ("down", ("EO",)),
        ("swap", ("EO", "IM")),
        ("swap", (MoKind.IM, "extrinsic-optical")),
    ])
    def test_kinds_must_be_mokind_members(self, scheme, kinds):
        # a name or value string is not a kind: it used to pass as IM-down,
        # or to fail with a bare TypeError when a swap sorted its kinds
        with pytest.raises(ValueError, match="MoKind"):
            Topology(scheme, kinds)

    @pytest.mark.parametrize("seq", [list, tuple, iter], ids=["list", "tuple", "generator"])
    def test_kinds_sequence_is_stored_as_a_tuple(self, seq):
        # a list used to be kept as given for a downconversion, which made the
        # topology unequal to Topology.down's and unhashable; a generator was
        # used up by the kind check before its length was taken
        for kinds, want in (((MoKind.EO,), Topology.down(MoKind.EO)),
                            ((MoKind.IM, MoKind.EO), Topology.swap_asym(MoKind.EO, MoKind.IM))):
            t = Topology(want.scheme, seq(kinds))
            assert t == want and hash(t) == hash(want)
            assert t.kinds == want.kinds and type(t.kinds) is tuple

    def test_factories_return_the_canonical_instances(self):
        # down, swap_sym and swap_asym hand out the instances of
        # ALL_TOPOLOGIES, equal and hashing alike to a constructed one
        for k in MoKind:
            for t, built in ((Topology.down(k), Topology("down", [k])),
                             (Topology.swap_sym(k), Topology("swap", (k, k)))):
                assert t is ALL_TOPOLOGIES[ALL_TOPOLOGIES.index(t)]
                assert t == built and hash(t) == hash(built) and t is not built
        assert Topology.down(MoKind.EO) is Topology.down(MoKind.EO)
        for k1, k2 in itertools.permutations(MoKind, 2):
            t = Topology.swap_asym(k1, k2)
            assert t is Topology.swap_asym(k2, k1)
            assert t is ALL_TOPOLOGIES[ALL_TOPOLOGIES.index(t)]
            built = Topology("swap", (k2, k1))
            assert t == built and hash(t) == hash(built)

    def test_pickle_round_trip(self):
        # a process pool (--jobs) sends topologies to its workers
        for t in ALL_TOPOLOGIES:
            back = pickle.loads(pickle.dumps(t))
            assert back == t and hash(back) == hash(t) and back.label == t.label

    @pytest.mark.parametrize("factory, kinds", [
        ("down", ("EO",)),
        ("down", (1,)),
        ("down", ([MoKind.EO],)),
        ("swap_sym", ("EO",)),
        ("swap_sym", ([MoKind.EO],)),
        ("swap_asym", (MoKind.EO, "IM")),
        ("swap_asym", ([MoKind.EO], MoKind.IM)),
        ("swap_asym", ([MoKind.EO], [MoKind.IM])),
        ("swap_asym", (MoKind.EO, MoKind.EO)),
        ("swap_asym", ([MoKind.EO], [MoKind.EO])),
        ("swap_asym", ("EO", "EO")),
    ])
    def test_factories_raise_the_constructors_value_error(self, factory, kinds):
        # a kind that is no MoKind member, unhashable or not, and equal kinds
        # of an asymmetric swap: the lookup of the canonical instance turns
        # none of them into a TypeError
        with pytest.raises(ValueError) as info:
            getattr(Topology, factory)(*kinds)
        assert type(info.value) is ValueError
        if factory == "swap_asym" and kinds[0] == kinds[1]:
            assert str(info.value) == "asymmetric swapping needs two distinct kinds"
            return
        with pytest.raises(ValueError) as direct:
            Topology(factory[:4], kinds * 2 if factory == "swap_sym" else kinds)
        assert str(info.value) == str(direct.value)

    def test_labels(self):
        assert Topology.down(MoKind.IM).label == "IM-down"
        assert Topology.swap_sym(MoKind.EO).label == "EO-swap"

    def test_loss_slots(self):
        assert loss_slot_count(Topology.down(MoKind.EO)) == 2
        assert loss_slot_count(Topology.down(MoKind.IM)) == 1
        assert loss_slot_count(Topology.swap_sym(MoKind.EO)) == 2
        assert loss_slot_count(Topology.swap_asym(MoKind.IM, MoKind.EO)) == 3
        assert loss_slot_count(Topology.swap_asym(MoKind.IM, MoKind.IO)) == 2
        # the rule on all 14: down(EO)'s two arms, a swap's two measured
        # modes, and an asymmetric EO swap's pre-downconversion mode
        for t in ALL_TOPOLOGIES:
            eo = MoKind.EO in t.kinds
            want = (2 if eo else 1) if t.scheme == "down" else 2 + (eo and not t.is_symmetric)
            assert loss_slot_count(t) == want and type(loss_slot_count(t)) is int, t.label

    def test_default_splits_multiply_to_tau_e(self):
        # sweeps pass numpy scalars; numpy shares would slow the hot path
        for t, tau_e in itertools.product(ALL_TOPOLOGIES, (0.7, np.float64(0.7))):
            split = default_loss_split(t, tau_e)
            assert math.prod(split) == pytest.approx(0.7, rel=1e-12)
            assert all(type(f) is float for f in split)

    @pytest.mark.parametrize("tau_e", [-0.5, 0.0, 1.5])
    def test_default_split_checks_tau_e_first(self, tau_e):
        with pytest.raises(ValueError, match="external transmissivity"):
            default_loss_split(Topology.down(MoKind.EO), tau_e)


class TestSwap:
    def test_identical_inputs_reduce_to_symmetric_form(self, rng):
        for a, b, c in random_balanced_states(rng, 200):
            s = BalancedForm(a, b, c)
            out = swap(s, s)
            assert out.a == pytest.approx(b - c * c / (2 * a), rel=1e-14)
            assert out.b == pytest.approx(b - c * c / (2 * a), rel=1e-14)
            assert out.c == pytest.approx(-c * c / (2 * a), rel=1e-14)

    def test_uncorrelated_partner_breaks_entanglement(self, rng):
        s1 = BalancedForm.from_cov(make_tms(1.0))
        out = swap(s1, BalancedForm(0.7, 0.9, 0.0))
        assert out.c == 0.0
        assert log_negativity(out) == 0.0

    def test_matches_homodyne_measurement_oracle(self, rng):
        for _ in range(300):
            (a1, b1, c1), (a2, b2, c2) = random_balanced_states(rng, 2)
            s1, s2 = BalancedForm(a1, b1, c1), BalancedForm(a2, b2, c2)
            got = swap(s1, s2)
            v = epr_measurement_oracle(s1, s2)
            want = BalancedForm.from_cov(
                __import__("gausslink").CovMat2((v + v.T) / 2)
            )
            np.testing.assert_allclose(
                (got.a, got.b, abs(got.c)),
                (want.a, want.b, abs(want.c)),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_swapped_tms_pair_equals_tms_with_reduced_squeezing(self):
        r = 0.9
        s = BalancedForm.from_cov(make_tms(r))
        out = swap(s, s)
        # output is again a pure two-mode-squeezed form
        assert out.a**2 - out.c**2 == pytest.approx(0.25, rel=1e-12)
        r_eff = 0.5 * math.acosh(2.0 * out.a)
        ref = BalancedForm.from_cov(make_tms(r_eff))
        assert log_negativity(out) == pytest.approx(log_negativity(ref), rel=1e-12)
        assert r_eff < r


class TestDownconvert:
    def test_identity_channel_is_noop(self):
        s = BalancedForm.from_cov(make_tms(0.5))
        out = downconvert_mm(s, loss_channel(1.0))
        assert out == s

    def test_zero_transmission_separates(self):
        s = BalancedForm.from_cov(make_tms(0.5))
        out = downconvert_mm(s, loss_channel(0.0))
        assert out.c == 0.0

    def test_rejects_anisotropic_channel(self):
        from gausslink import OneModeChannel

        ch = OneModeChannel(np.diag([0.5, 0.6]), np.eye(2))
        with pytest.raises(ValueError):
            downconvert_mm(BalancedForm(1.0, 1.0, 0.3), ch)


def _fresh(x):
    """A new float object with the bits of x, the sign of a zero included."""
    y = float.fromhex(x.hex())
    assert y is not x and y.hex() == x.hex()
    return y


def _swap_of_sources(s1, s2, split):
    """_mm_excess's swap from the source states s1 and s2, each computed on its own."""
    (A1, B1, c1, P1), (A2, B2, c2, P2) = s1, s2
    tau1, tau2 = split
    A1, c1, P1 = tau1 * A1, math.sqrt(tau1) * c1, tau1 * P1
    A2, c2, P2 = tau2 * A2, math.sqrt(tau2) * c2, tau2 * P2
    den = 1.0 + A1 + A2
    return ((B1 * (1.0 + A2) + P1) / den, (B2 * (1.0 + A1) + P2) / den, -c1 * c2 / den,
            (B1 * B2 + P1 * B2 + P2 * B1) / den)


class TestSymmetricSwapSource:
    """A symmetric swap whose node 2 holds node 1's very cooperativity
    objects evaluates node 1's source once: bit for bit the evaluation
    from two source states computed apart."""

    def test_shared_source_equals_two_sources(self, rng):
        # random caps, n_th and split; r = 0 in a fifth of the draws, and
        # each cooperativity 0.0 or -0.0 in a fifth of its own
        flipped = 0
        for i in range(400):
            t = SYMMETRIC_SWAP_TOPOLOGIES[i % len(SYMMETRIC_SWAP_TOPOLOGIES)]
            caps = random_caps(rng)
            n_th = 0.0 if i % 3 == 0 else rng.uniform(0.0, 3.0)
            r = 0.0 if i % 5 == 0 else rng.uniform(0.0, 1.5)
            tau_e = rng.uniform(0.3, 1.0)
            t_1 = tau_e ** rng.uniform(0.0, 1.0)
            split = (t_1, tau_e / t_1)
            taus = network._slot_taus(t, caps.tau_a, split)
            c_a, c_b = ((-0.0 if rng.uniform() < 0.5 else 0.0) if rng.uniform() < 0.2 else rng.uniform(0.0, cap)
                        for cap in (caps.d_a, caps.d_b))
            config = (i, t.label, caps, n_th, r, split, c_a, c_b)

            def state(a, b, kind=t.kinds[0]):
                return _mo_excess(kind, a, b, caps.tau_a, caps.tau_b, n_th, r)

            want = _swap_of_sources(state(c_a, c_b), state(_fresh(c_a), _fresh(c_b)), split)
            got = network._mm_excess(t, caps, n_th, r, (c_a, c_b, c_a, c_b), taus)
            assert [repr(x) for x in got] == [repr(x) for x in want], config
            # equal but other objects: evaluated apart, with the same bits
            apart = network._mm_excess(t, caps, n_th, r, (c_a, c_b, _fresh(c_a), _fresh(c_b)), taus)
            assert repr(apart) == repr(got), config
            if c_a == 0.0:
                # the other zero at node 2 is == node 1's, and its own state
                other = -c_a
                want = _swap_of_sources(state(c_a, c_b), state(other, c_b), split)
                got_other = network._mm_excess(t, caps, n_th, r, (c_a, c_b, other, c_b), taus)
                assert [repr(x) for x in got_other] == [repr(x) for x in want], config
                flipped += repr(got_other) != repr(got)
        # == in place of identity would have given these draws node 1's sign
        assert flipped >= 5, flipped

    def test_shared_source_on_arrays(self, rng):
        caps = random_caps(rng)
        c_a = rng.uniform(0.0, caps.d_a, 50)
        c_b = np.minimum(c_a + 0.5, caps.d_b)
        split = (0.6, 1.0)
        for t in SYMMETRIC_SWAP_TOPOLOGIES:
            kind = t.kinds[0]
            with np.errstate(all="ignore"):  # an unstable IO/IM entry may divide by 0
                s1 = _mo_excess(kind, c_a, c_b, caps.tau_a, caps.tau_b, 0.5, 0.7)
                s2 = _mo_excess(kind, c_a.copy(), c_b.copy(), caps.tau_a, caps.tau_b, 0.5, 0.7)
                want = _swap_of_sources(s1, s2, split)
                got = network._mm_excess(t, caps, 0.5, 0.7, (c_a, c_b, c_a, c_b), network._slot_taus(t, caps.tau_a, split))
            assert [repr(x.tolist()) for x in got] == [repr(x.tolist()) for x in want], t.label

    def test_mo_excess_calls_per_evaluation(self, monkeypatch):
        # counted at network._mo_excess, the name the benchmark's tracer
        # patches: one source per downconversion or symmetric swap at node
        # 1's objects, through the public API too, and two per asymmetric swap
        calls = []
        mo = network._mo_excess
        monkeypatch.setattr(network, "_mo_excess", lambda *a: calls.append(a[0]) or mo(*a))
        caps = DeviceCaps(d_a=50.0, d_b=8.0, tau_a=0.9, tau_b=0.85, n_th=1.0)
        c_a, c_b = 4.0, 3.6
        for t in ALL_TOPOLOGIES:
            want = 1 if t.is_symmetric else 2
            taus = network._slot_taus(t, caps.tau_a, default_loss_split(t, 0.8))
            calls.clear()
            network._mm_excess(t, caps, caps.n_th, 0.5, (c_a, c_b) * 2, taus)
            assert len(calls) == want, (t.label, calls)
            calls.clear()
            mm_log_negativity(t, NetworkConfig(caps, c_a, c_b, c_a, c_b, r=0.5, tau_e=0.8))
            assert len(calls) == want, (t.label, calls)
            if t.scheme == "swap" and t.is_symmetric:
                # equal values in other objects: two sources, evaluated apart
                calls.clear()
                network._mm_excess(t, caps, caps.n_th, 0.5, (c_a, c_b, _fresh(c_a), _fresh(c_b)), taus)
                assert len(calls) == 2, (t.label, calls)


class TestMmState:
    def setup_method(self):
        self.caps = DeviceCaps(d_a=50.0, d_b=8.0, tau_a=0.9, tau_b=0.85, n_th=1.0)

    def cfg(self, **kw):
        base = dict(c_a1=50.0, c_b1=8.0, c_a2=50.0, c_b2=8.0, r=0.6)
        base.update(kw)
        return NetworkConfig(self.caps, **base)

    def test_matches_explicit_composition_every_topology(self):
        # independent oracle: full matrix pipeline through core channels
        from gausslink import DptParams, apply_one_mode

        caps = self.caps

        def pair_for(kind):
            # IO stability needs C_a < C_b + 1; everything else can sit at caps
            return (8.5, 8.0) if kind is MoKind.IO else (50.0, 8.0)

        for t in ALL_TOPOLOGIES:
            ca1, cb1 = pair_for(t.kinds[0])
            ca2, cb2 = pair_for(t.kinds[1]) if t.scheme == "swap" else (50.0, 8.0)
            cfg = self.cfg(c_a1=ca1, c_b1=cb1, c_a2=ca2, c_b2=cb2)
            got = mm_state(t, cfg)
            r = 0.6
            split = default_loss_split(t, 1.0)

            def source(kind, c_a, c_b, tau_a):
                sig = {"EO": (-1, -1), "EM": (-1, -1), "IO": (1, -1), "IM": (-1, 1)}[kind.name]
                p = DptParams(c_a, c_b, tau_a, caps.tau_b, caps.n_th, *sig)
                return mo_state(kind, p, r, caps.rates)

            if t.scheme == "down" and t.kinds[0] is MoKind.EO:
                v = make_tms(r)
                for mode, (ca, cb) in ((1, (cfg.c_a1, cfg.c_b1)), (2, (cfg.c_a2, cfg.c_b2))):
                    p = DptParams(ca, cb, caps.tau_a, caps.tau_b, caps.n_th)
                    v = apply_one_mode(conversion_channel("down", p), v, mode)
                want = BalancedForm.from_cov(v)
            elif t.scheme == "down":
                s = source(t.kinds[0], cfg.c_a1, cfg.c_b1, caps.tau_a)
                p = DptParams(cfg.c_a2, cfg.c_b2, caps.tau_a, caps.tau_b, caps.n_th)
                v = apply_one_mode(conversion_channel("down", p), s.to_cov(), 1)
                w = BalancedForm.from_cov(v)
                # node order: the source's microwave mode (node 1) first
                want = BalancedForm(w.b, w.a, w.c)
            else:
                s1 = source(t.kinds[0], cfg.c_a1, cfg.c_b1, caps.tau_a)
                s2 = source(t.kinds[1], cfg.c_a2, cfg.c_b2, caps.tau_a)
                want = swap(s1, s2)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
            # the full-variance symplectic eigenvalue is accurate at these
            # moderate points, so it cross-checks the margin readout
            assert mm_log_negativity(t, cfg) == pytest.approx(log_negativity(got), rel=1e-12)

    @pytest.mark.parametrize("t", DOWN_TOPOLOGIES, ids=lambda t: t.label)
    def test_down_topologies_return_node_order(self, t):
        # mode 1 of the MM state is node 1's: the source's microwave mode,
        # untouched by the downconverter, so it is the source's mode 2 exactly
        from gausslink import DptParams
        from gausslink.sources import REQUIRED_SIGMAS

        kind, caps, tau_e = t.kinds[0], self.caps, 0.64
        c_a1, c_b1 = (5.5, 5.0) if kind is MoKind.IO else (20.0, 5.0)
        split = (0.8, 0.8) if kind is MoKind.EO else (tau_e,)
        cfg = self.cfg(c_a1=c_a1, c_b1=c_b1, c_a2=40.0, c_b2=7.0, tau_e=tau_e, loss_split=split)
        # only down(EO)'s source arm carries a share of the loss
        tau_a1 = caps.tau_a * split[0] if kind is MoKind.EO else caps.tau_a
        p = DptParams(c_a1, c_b1, tau_a1, caps.tau_b, caps.n_th, *REQUIRED_SIGMAS[kind])
        assert mm_state(t, cfg).a == mo_state(kind, p, cfg.r, caps.rates).b

    def test_down_eo_matches_lossy_two_arm_form(self, rng):
        # MM state of the split-loss EO distribution: a = td(t1 sinh^2 r + 1/2) + nd
        caps = self.caps
        for _ in range(50):
            t1s = rng.uniform(0.5, 1.0)
            tau_e = t1s * rng.uniform(0.5, 1.0)
            t2s = tau_e / t1s
            r = rng.uniform(0.1, 1.2)
            cfg = NetworkConfig(
                caps, 20.0, 5.0, 30.0, 6.0, r=r, tau_e=tau_e, loss_split=(t1s, t2s)
            )
            got = mm_state(Topology.down(MoKind.EO), cfg)

            def dchan(ca, cb):
                ch = conversion_channel(
                    "down",
                    __import__("gausslink").DptParams(ca, cb, caps.tau_a, caps.tau_b, caps.n_th),
                )
                return ch.T[0, 0] ** 2, ch.N[0, 0]
            td1, nd1 = dchan(20.0, 5.0)
            td2, nd2 = dchan(30.0, 6.0)
            sh2 = math.sinh(r) ** 2
            assert got.a == pytest.approx(td1 * (t1s * sh2 + 0.5) + nd1, rel=1e-12)
            assert got.b == pytest.approx(td2 * (t2s * sh2 + 0.5) + nd2, rel=1e-12)
            assert abs(got.c) == pytest.approx(
                0.5 * math.sqrt(td1 * td2 * t1s * t2s) * math.sinh(2 * r), rel=1e-12
            )

    def test_tracked_product_defect_matches_direct_product(self, rng):
        # away from the instability the naive product A*B - c^2 is accurate,
        # so the cancellation-free bookkeeping must agree with it there
        from gausslink.network import _mm_excess, _slot_taus

        caps = self.caps
        for t in ALL_TOPOLOGIES:
            for _ in range(40):
                # keep |C_a - C_b| < 1 so every blue-pump variant is stable
                ca = rng.uniform(1.0, 7.0)
                cb = min(max(ca + rng.uniform(-0.7, 0.7), 0.5), 8.0)
                cs = (ca, cb, ca, cb)
                taus = _slot_taus(t, caps.tau_a, default_loss_split(t, rng.uniform(0.6, 1.0)))
                A, B, c, P = _mm_excess(t, caps, 0.7, 0.5, cs, taus)
                assert P == pytest.approx(A * B - c * c, rel=1e-9, abs=1e-12)

    def test_down_eo_approaches_tms_at_high_cooperativity(self):
        # lossless, noiseless, balanced high cooperativities: the two
        # conversion channels become transparent and the distributed
        # state tends to the original squeezed pair
        r = 0.8
        target = log_negativity(BalancedForm.from_cov(make_tms(r)))
        prev_gap = None
        for c in (1e2, 1e3, 1e4, 1e5):
            caps = DeviceCaps(d_a=c, d_b=c, tau_a=1.0, tau_b=1.0, n_th=0.0)
            cfg = NetworkConfig(caps, c, c, c, c, r=r)
            gap = target - mm_log_negativity(Topology.down(MoKind.EO), cfg)
            assert gap > 0.0
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-4

    def test_im_swap_separable_at_half_transmissivity(self):
        caps = DeviceCaps(d_a=100.0, d_b=10.0, tau_a=0.5, tau_b=0.9, n_th=0.0)
        t = Topology.swap_sym(MoKind.IM)
        for n_th in (0.0, 0.5, 10.0, 1000.0):
            caps_n = DeviceCaps(100.0, 10.0, 0.5, 0.9, n_th)
            cfg = NetworkConfig(caps_n, 100.0, 10.0, 100.0, 10.0)
            assert mm_log_negativity(t, cfg) == 0.0

    def test_swap_theorem_small_sweep(self, rng):
        for _ in range(2000):
            (a1, b1, c1), (a2, b2, c2) = random_balanced_states(rng, 2)
            s1, s2 = BalancedForm(a1, b1, c1), BalancedForm(a2, b2, c2)
            e12 = log_negativity(swap(s1, s2))
            e11 = log_negativity(swap(s1, s1))
            e22 = log_negativity(swap(s2, s2))
            assert e12 <= max(e11, e22) + 1e-12

    def test_cap_violation_reports_bound(self):
        with pytest.raises(ValueError, match="C_a,1 .* <= 50"):
            mm_state(Topology.down(MoKind.EO), self.cfg(c_a1=51.0))

    @pytest.mark.parametrize("field", ["c_a1", "c_b1", "c_a2", "c_b2"])
    def test_nan_cooperativity_rejected(self, field):
        for t in (Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO)):
            with pytest.raises(ValueError, match="nan violates"):
                mm_log_negativity(t, self.cfg(**{field: math.nan}))

    def test_unstable_source_reports_bound(self):
        with pytest.raises(UnstableOperatingPointError, match="C_b"):
            mm_state(Topology.swap_sym(MoKind.IM), self.cfg(c_a1=2.0, c_b1=8.0))

    @pytest.mark.parametrize(
        "kind, c_red",
        [(MoKind.IO, 124.0), (MoKind.IO, 10.0), (MoKind.IM, 100.0)],
        ids=["IO-second-criterion", "IO-first-criterion", "IM-first-criterion"],
    )
    def test_kappa_roles_at_unequal_rates(self, kind, c_red):
        # kappa_a = 1000, kappa_b = 50: swapping which linewidth belongs to
        # the blue-pumped side moves every bound checked here
        from gausslink import DptParams, brubaker2022_caps, stability_ok

        caps = brubaker2022_caps()
        rt = caps.rates
        optical = kind is MoKind.IO
        k_plus, k_minus = (rt.kappa_a, rt.kappa_b) if optical else (rt.kappa_b, rt.kappa_a)
        g = rt.gamma_m
        # C_+ < C_- + 1 and, with 4 G_i^2 = C_i kappa_i gamma_m,
        # 4 G_+^2 / (kappa_- + g) < 4 G_-^2 / (kappa_+ + g) + kappa_+ + kappa_-
        rhs = c_red * k_minus * g / (k_plus + g) + k_plus + k_minus
        second = rhs * (k_minus + g) / (k_plus * g)
        bound = min(c_red + 1.0, second)
        name = "C_a" if optical else "C_b"
        for c_blue, want in ((bound - 1e-6, True), (bound + 1e-6, False)):
            c_a, c_b = (c_blue, c_red) if optical else (c_red, c_blue)
            sigmas = (1, -1) if optical else (-1, 1)
            p = DptParams(c_a, c_b, caps.tau_a, caps.tau_b, caps.n_th, *sigmas)
            assert stability_ok(p, rt) is want
            for t in (Topology.down(kind), Topology.swap_sym(kind)):
                cfg = NetworkConfig(caps, c_a, c_b, c_a if t.scheme == "swap" else caps.d_a,
                                    c_b if t.scheme == "swap" else caps.d_b)
                if want:
                    mm_state(t, cfg)
                    continue
                with pytest.raises(UnstableOperatingPointError) as err:
                    mm_state(t, cfg)
                msg = str(err.value)
                assert f"{kind.name} source unstable: {name} = {c_blue}" in msg
                # the message names the enforced bound, margin included
                enforced = bound - STRICT_MARGIN
                assert float(msg.rsplit(f"{name} < ", 1)[1]) == pytest.approx(enforced, rel=1e-12)

    def test_unstable_message_states_a_violated_inequality(self):
        # 5e-10 below the first criterion's C_+ = C_- + 1 = 5, inside the
        # strict margin: unstable, and the message must not claim 4.9999999995 < 5
        caps = DeviceCaps(10.0, 4.0, 0.9, 0.8, 0.0)
        c_a = 5.0 - STRICT_MARGIN / 2
        cfg = NetworkConfig(caps, c_a, 4.0, c_a, 4.0)
        with pytest.raises(UnstableOperatingPointError) as err:
            mm_log_negativity(Topology.swap_sym(MoKind.IO), cfg)
        bound = float(str(err.value).rsplit("C_a < ", 1)[1])
        assert str(err.value).startswith(f"IO source unstable: C_a = {c_a} violates")
        assert bound == 5.0 - STRICT_MARGIN
        assert not c_a < bound

    def test_nan_split_rejected(self):
        for split in ((math.nan, math.nan), (math.nan, 0.5)):
            with pytest.raises(ValueError, match="multiplies|outside"):
                mm_state(
                    Topology.down(MoKind.EO),
                    NetworkConfig(self.caps, 10, 5, 10, 5, r=0.5, tau_e=0.5, loss_split=split),
                )

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="multiplies"):
            mm_state(
                Topology.down(MoKind.EO),
                NetworkConfig(self.caps, 10, 5, 10, 5, r=0.5, tau_e=0.5, loss_split=(0.9, 0.9)),
            )
        with pytest.raises(ValueError, match="slot"):
            mm_state(
                Topology.down(MoKind.IM),
                NetworkConfig(self.caps, 10, 5, 10, 5, tau_e=0.5, loss_split=(0.5, 1.0)),
            )
