"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance and,
where stated, its runtime budget.  Every test prints a single
machine-greppable summary line of the form

    [criterion N] PASS <detail>

(failures surface through the assertion itself).
"""

import math
import time

import numpy as np
import pytest

from gausslink import (
    BalancedForm,
    DeviceCaps,
    DptParams,
    NetworkConfig,
    Topology,
    analytic_threshold,
    apply_one_mode,
    apply_two_mode,
    conversion_channel,
    dpt_two_mode_channel,
    log_negativity,
    loss_channel,
    make_tms,
    mm_log_negativity,
    mo_state,
    mo_state_via_composition,
    numeric_threshold,
    optimize_cooperativities,
    stability_ok,
    swap,
)
from gausslink.experiments import ExperimentConfig, cmd_ebit_rate, cmd_threshold_vs_loss
from gausslink.network import SYMMETRIC_TOPOLOGIES
from gausslink.presets import brubaker2022_caps
from gausslink.sampling import (
    generator,
    random_balanced_states,
    random_red_params,
    random_source_params,
)
from gausslink.sources import MoKind
from gausslink.thresholds import _CooperativityBox

SEED = 20260808


def _report(num: int, detail: str) -> None:
    print(f"\n[criterion {num}] PASS {detail}")


def test_criterion_1_analytic_numeric_threshold_agreement():
    """Closed-form thresholds match bisection to 1e-6 relative, 200 draws."""
    rng = generator(SEED, stream=101)
    rows = [
        Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO),
        Topology.down(MoKind.IM), Topology.swap_sym(MoKind.IM),
        Topology.down(MoKind.IO), Topology.swap_sym(MoKind.IO),
    ]
    t0 = time.time()
    worst = 0.0
    n_feasible = 0
    for i in range(200):
        caps = DeviceCaps(
            d_a=10.0 ** rng.uniform(-2.0, 4.0),
            d_b=10.0 ** rng.uniform(-2.0, 3.0),
            tau_a=rng.uniform(0.5, 1.0),
            tau_b=rng.uniform(0.5, 1.0),
            n_th=0.0,
        )
        r = rng.uniform(0.0, 1.2)
        for t in rows:
            a = analytic_threshold(t, caps, r)
            b = numeric_threshold(t, caps, r)
            assert a.can_entangle == b.can_entangle, (t.label, i, caps)
            if a.can_entangle:
                n_feasible += 1
                rel = abs(a.n_th_max - b.n_th_max) / a.n_th_max
                worst = max(worst, rel)
                assert rel <= 1e-6, (t.label, i, caps, a.n_th_max, b.n_th_max)
    elapsed = time.time() - t0
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    _report(1, f"200 draws x 6 rows ({n_feasible} feasible), worst rel err "
               f"{worst:.2e} <= 1e-6, {elapsed:.1f}s <= 300s")


def test_criterion_2_asymmetric_swapping_theorem():
    """E12 <= max(E11, E22) + 1e-12 over 1e5 random physical pairs."""
    rng = generator(SEED, stream=102)
    states = random_balanced_states(rng, 200000)
    t0 = time.time()
    worst = -math.inf
    for i in range(100000):
        s1 = BalancedForm(*states[2 * i])
        s2 = BalancedForm(*states[2 * i + 1])
        e12 = log_negativity(swap(s1, s2))
        e11 = log_negativity(swap(s1, s1))
        e22 = log_negativity(swap(s2, s2))
        excess = e12 - max(e11, e22)
        worst = max(worst, excess)
        assert excess <= 1e-12, (i, s1, s2)
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"
    _report(2, f"1e5 pairs, max(E12 - max(E11, E22)) = {worst:.2e} <= 1e-12, "
               f"{elapsed:.1f}s <= 60s")


def test_criterion_3_oracle_equivalence():
    """Closed forms vs channel composition, and conversion vs traced marginal.

    The 40,000 state pairs and 40,000 channel blocks are drawn one by
    one and stacked, and each stack is asserted once: assert_allclose
    checks every entry against the same rtol and atol.
    """
    rng = generator(SEED, stream=103)
    fast, slow = [], []
    for kind in MoKind:
        for _ in range(10000):
            p = random_source_params(rng, kind)
            r = rng.uniform(0.0, 1.2)
            fast.append(mo_state(kind, p, r))
            slow.append(mo_state_via_composition(kind, p, r))
    fast, slow = np.array(fast), np.array(slow)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)
    scale = np.maximum(1.0, np.max(np.abs(fast), axis=1))
    worst_state = float(np.max(np.max(np.abs(fast - slow), axis=1) / scale))
    traced, direct = [], []
    for _ in range(10000):
        p = random_red_params(rng)
        full = dpt_two_mode_channel(p)
        for direction, keep, feed in (("down", slice(2, 4), slice(0, 2)),
                                      ("up", slice(0, 2), slice(2, 4))):
            ch = conversion_channel(direction, p)
            t_vac = full.T[keep, keep]
            traced += [full.T[keep, feed], 0.5 * t_vac @ t_vac.T + full.N[keep, keep]]
            direct += [ch.T, ch.N]
    traced, direct = np.array(traced), np.array(direct)
    np.testing.assert_allclose(traced, direct, rtol=1e-12, atol=1e-12)
    worst_conv = float(np.max(np.abs(traced - direct)))
    _report(3, f"1e4 draws x 4 kinds componentwise <= 1e-12 (worst scaled "
               f"{worst_state:.2e}); traced-marginal worst {worst_conv:.2e} <= 1e-12")


def test_criterion_4_device_topology_census():
    """At the device preset and no external loss, exactly four symmetric
    topologies produce entanglement: EO-down, EO-swap, IM-down, IM-swap."""
    caps = brubaker2022_caps()
    entangled = set()
    for t in SYMMETRIC_TOPOLOGIES:
        for db in (3.0, 10.0):
            r = db * math.log(10.0) / 20.0
            _, e = optimize_cooperativities(t, caps, caps.n_th, r)
            if e > 0.0:
                entangled.add(t.label)
    assert entangled == {"EO-down", "EO-swap", "IM-down", "IM-swap"}, entangled
    _report(4, f"entangled set at tau_e=1: {sorted(entangled)}")


def _im_down_oracle(caps, cs, tau_e):
    """E_N of the fiber-linked IM-downconversion state by full 4x4 composition.

    The IM source channel acts on vacuum, a pure-loss channel carries the
    optical mode over the fiber, the second transducer downconverts it,
    and the partial-transpose symplectic eigenvalue comes from a general
    eigensolver.  Independent of the closed forms behind
    ``mm_log_negativity``.
    """
    c_a1, c_b1, c_a2, c_b2 = cs
    src = DptParams(c_a1, c_b1, caps.tau_a, caps.tau_b, caps.n_th, sigma_a=-1, sigma_b=1)
    v = apply_two_mode(dpt_two_mode_channel(src), make_tms(0.0))
    v = apply_one_mode(loss_channel(tau_e), v, mode=1)
    conv = DptParams(c_a2, c_b2, caps.tau_a, caps.tau_b, caps.n_th)
    v = apply_one_mode(conversion_channel("down", conv), v, mode=1)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    omega = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
    nu = np.min(np.abs(np.linalg.eigvals(1j * omega @ flip @ v.m @ flip)))
    return max(0.0, -math.log2(2.0 * nu))


def test_criterion_5_ebit_rate():
    """Default fiber settings: the historical ~6 e-bits/s, and the command.

    The historical estimate of about 6 e-bits/s (+-25%) is the
    IM-downconversion negativity at the all-maximal cooperativity corner
    expressed in natural-log units, times the bandwidth.  ``ebit-rate``
    reports something else, as documented: the negativity in log2 units
    (e-bits), maximized over cooperativities, times the bandwidth (about
    19 e-bits/s).  Each figure is checked in its own convention.
    """
    caps = brubaker2022_caps()
    report = cmd_ebit_rate(ExperimentConfig(caps=caps))
    tau_e, bw = report["tau_e"], report["bandwidth_hz"]
    topo = Topology.down(MoKind.IM)

    corner = mm_log_negativity(
        topo, NetworkConfig(caps, caps.d_a, caps.d_b, caps.d_a, caps.d_b, tau_e=tau_e)
    )
    corner_nat_rate = bw * corner * math.log(2.0)
    assert 4.5 <= corner_nat_rate <= 7.5, (
        f"corner rate {corner_nat_rate:.2f} nats/s outside [4.5, 7.5]; "
        f"corner log-negativity {corner:.5f} e-bits at tau_e={tau_e:.4f}"
    )

    e, cs = report["log_negativity"], tuple(report["cooperativities"])
    e_oracle = _im_down_oracle(caps, cs, tau_e)
    assert abs(e - e_oracle) <= 1e-12 * e_oracle, (e, e_oracle, cs)
    assert e >= corner, (e, corner)
    grid_a = np.geomspace(1.0, caps.d_a, 14)
    grid_b = np.geomspace(1.0, caps.d_b, 8)
    grid_best = 0.0
    for c_a1 in grid_a:
        for c_b1 in grid_b:
            src = DptParams(c_a1, c_b1, caps.tau_a, caps.tau_b, caps.n_th, sigma_a=-1, sigma_b=1)
            if not stability_ok(src, caps.rates):
                continue
            for c_a2 in grid_a:
                for c_b2 in grid_b:
                    cfg = NetworkConfig(caps, c_a1, c_b1, c_a2, c_b2, tau_e=tau_e)
                    grid_best = max(grid_best, mm_log_negativity(topo, cfg))
    assert grid_best <= e + 1e-9, (grid_best, e)
    rate = report["rate_ebits_per_s"]
    assert rate == e * bw, (rate, e, bw)
    _report(5, f"corner {corner_nat_rate:.2f} nats/s (historical ~6) within [4.5, 7.5]; "
               f"ebit-rate {rate:.2f} e-bits/s at optimized cooperativities, "
               f"oracle rel. err {abs(e - e_oracle) / e_oracle:.1e} <= 1e-12, "
               f">= corner {bw * corner:.2f} and grid best {bw * grid_best:.2f} e-bits/s")


def test_criterion_6_loss_split_optimality():
    """Grid-verified loss placements plus the asymmetric-swap window."""
    rng = generator(SEED, stream=106)
    grid_pts = 101

    # equal split optimal for EO downconversion: 50 draws
    t_down = Topology.down(MoKind.EO)
    for i in range(50):
        caps = DeviceCaps(
            10.0 ** rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-1.0, 2.0),
            rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0), 0.0,
        )
        caps = DeviceCaps(caps.d_a, caps.d_b, caps.tau_a, caps.tau_b,
                          rng.uniform(0.0, 0.2) * caps.tau_a * caps.d_a)
        r = rng.uniform(0.2, 1.2)
        tau_e = rng.uniform(0.3, 0.95)
        cs = (caps.d_a, caps.d_b, caps.d_a, caps.d_b)
        s = math.sqrt(tau_e)
        e_eq = mm_log_negativity(
            t_down, NetworkConfig(caps, *cs, r=r, tau_e=tau_e, loss_split=(s, s))
        )
        for t1 in np.linspace(tau_e, 1.0, grid_pts):
            e = mm_log_negativity(
                t_down,
                NetworkConfig(caps, *cs, r=r, tau_e=tau_e, loss_split=(t1, tau_e / t1)),
            )
            assert e_eq >= e - 1e-10, (i, t1)

    # extremal split optimal for symmetric swapping: 50 draws across kinds
    for i in range(50):
        kind = [MoKind.EO, MoKind.EM, MoKind.IM][i % 3]
        t_swap = Topology.swap_sym(kind)
        caps = DeviceCaps(
            10.0 ** rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-1.0, 2.0),
            rng.uniform(0.6, 1.0), rng.uniform(0.5, 1.0), 0.0,
        )
        c_b = caps.d_b if kind is not MoKind.IM else min(caps.d_b, caps.d_a + 0.9)
        cs = (caps.d_a, c_b, caps.d_a, c_b)
        r = rng.uniform(0.2, 1.2)
        tau_e = rng.uniform(0.3, 0.95)
        e_ex = mm_log_negativity(
            t_swap, NetworkConfig(caps, *cs, r=r, tau_e=tau_e, loss_split=(tau_e, 1.0))
        )
        for t1 in np.linspace(tau_e, 1.0, grid_pts):
            e = mm_log_negativity(
                t_swap,
                NetworkConfig(caps, *cs, r=r, tau_e=tau_e, loss_split=(t1, tau_e / t1)),
            )
            assert e_ex >= e - 1e-10, (i, kind, t1)

    # asymmetric IM+EO swapping overtakes both symmetric swaps in a
    # loss window at the device preset (all loss on the downconverted
    # EO mode versus the equally-distributed symmetric placements)
    caps = brubaker2022_caps()
    r10 = 10.0 * math.log(10.0) / 20.0
    t_asym = Topology.swap_asym(MoKind.IM, MoKind.EO)
    window = []
    for db in np.linspace(0.5, 5.0, 19):
        tau_e = 10.0 ** (-db / 10.0)
        s = math.sqrt(tau_e)
        _, e_asym = optimize_cooperativities(
            t_asym, caps, caps.n_th, r10, tau_e=tau_e, loss_split=(1.0, 1.0, tau_e)
        )
        _, e_im = optimize_cooperativities(
            Topology.swap_sym(MoKind.IM), caps, caps.n_th, r10,
            tau_e=tau_e, loss_split=(s, s),
        )
        _, e_eo = optimize_cooperativities(
            Topology.swap_sym(MoKind.EO), caps, caps.n_th, r10,
            tau_e=tau_e, loss_split=(s, s),
        )
        if e_asym > max(e_im, e_eo) and e_asym > 0.0:
            window.append(db)
    assert len(window) >= 3, "no asymmetric-swap advantage window found"
    _report(6, f"equal/extremal splits grid-confirmed (50 draws each); "
               f"asym window {window[0]:.2f}..{window[-1]:.2f} dB")


def test_criterion_7_global_necessary_condition():
    """No symmetric topology entangles once n_th >= tau_a * d_a."""
    rng = generator(SEED, stream=107)
    checked = 0
    for i in range(10000):
        caps = DeviceCaps(
            10.0 ** rng.uniform(-2.0, 4.0), 10.0 ** rng.uniform(-2.0, 3.0),
            rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0), 0.0,
        )
        n_th = caps.tau_a * caps.d_a * rng.uniform(1.0, 4.0)
        caps = DeviceCaps(caps.d_a, caps.d_b, caps.tau_a, caps.tau_b, n_th)
        t = SYMMETRIC_TOPOLOGIES[int(rng.integers(len(SYMMETRIC_TOPOLOGIES)))]
        r = rng.uniform(0.0, 1.2)
        c_a = rng.uniform(0.0, 1.0) * caps.d_a
        c_b = rng.uniform(0.0, 1.0) * caps.d_b
        kind = t.kinds[0]
        if kind is MoKind.IO:
            c_a = min(c_a, c_b + 0.9)
        elif kind is MoKind.IM:
            c_b = min(c_b, c_a + 0.9)
        cfg = NetworkConfig(caps, c_a, c_b, c_a, c_b, r=r)
        assert mm_log_negativity(t, cfg) == 0.0, (i, t.label, caps)
        checked += 1
    # and with the cooperativity search in the loop on a subset; the search
    # runs on every config, and every layout must stop at mu = 0, where the
    # node values fail its condition
    for i in range(100):
        caps = DeviceCaps(
            10.0 ** rng.uniform(-1.0, 3.0), 10.0 ** rng.uniform(-1.0, 2.0),
            rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0), 0.0,
        )
        n_th = caps.tau_a * caps.d_a * 1.000001
        caps = DeviceCaps(caps.d_a, caps.d_b, caps.tau_a, caps.tau_b, n_th)
        t = SYMMETRIC_TOPOLOGIES[i % len(SYMMETRIC_TOPOLOGIES)]
        box = _CooperativityBox.of(t, caps, n_th, rng.uniform(0.0, 1.2))
        _, m = box.search(6, 80)
        assert m <= 0.0, (i, t.label, caps)
        assert box.root().solve() == (box.full([0.0] * len(box.hi)), 0.0), (i, t.label, caps)
    _report(7, f"{checked} random configs + 100 optimized configs all separable")


def test_criterion_8_loss_scaling_laws():
    """Threshold-vs-loss log-log slopes: 1 for EO rows, 2 for the rest."""
    cfg = ExperimentConfig(experiment="threshold-vs-loss", points=61)
    rows, slopes, _ = cmd_threshold_vs_loss(cfg)
    assert abs(slopes["eo_down"] - 1.0) <= 0.1, slopes
    assert abs(slopes["eo_swap"] - 1.0) <= 0.1, slopes
    for name in ("em_down", "io_down", "im_down"):
        assert abs(slopes[name] - 2.0) <= 0.1, slopes

    # tie the fitted columns back to the bisection oracle at the decade edges
    for loss_db in (20.0, 30.0):
        tau_a = 10.0 ** (-loss_db / 10.0)
        caps = DeviceCaps(1e5, 1e4, tau_a, 1.0, 0.0)
        for t in (Topology.down(MoKind.EO), Topology.down(MoKind.IM)):
            a = analytic_threshold(t, caps, 0.92)
            b = numeric_threshold(t, caps, 0.92)
            assert b.n_th_max == pytest.approx(a.n_th_max, rel=1e-6)
    _report(8, "slopes " + ", ".join(
        f"{k}={slopes[k]:.3f}" for k in ("eo_down", "eo_swap", "em_down", "io_down", "im_down")
    ))
