import ast
import collections
import functools
import inspect
import itertools
import math
import pickle
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gausslink import (
    DeviceCaps,
    NetworkConfig,
    PhysicalRates,
    Topology,
    analytic_threshold,
    max_stable_ca,
    mm_log_negativity,
    numeric_threshold,
    optimize_cooperativities,
    optimize_loss_split,
)
from gausslink import experiments, network, optimize, sources, thresholds
from gausslink.experiments import ExperimentConfig, _device_cells, cmd_device_run, cmd_ebit_rate
from gausslink.network import (
    ALL_TOPOLOGIES,
    ASYMMETRIC_SWAP_TOPOLOGIES,
    SYMMETRIC_TOPOLOGIES,
    _log2_negativity,
    default_loss_split,
    loss_slot_count,
)
from gausslink.optimize import maximize_box
from gausslink.presets import PRESETS, brubaker2022_caps
from gausslink.sampling import generator, random_caps
from gausslink.sources import MoKind
from gausslink.thresholds import (
    _BlueNode,
    _CooperativityBox,
    _NodeRoot,
    _blue_node,
    _em_down_cell,
    _em_swap_cell,
    _falling_root,
    _margin_fn,
    _margin_fn4,
    _margin_fn_down,
    _ranked_starts,
    _stable_bound,
    stability_ok,
)
from gausslink.transducer import C_MAX, STRICT_MARGIN, _blue_bound

from conftest import golden_max_1d


class TestAnalyticTable:
    def test_eo_down_example(self):
        caps = DeviceCaps(100.0, 10.0, 1.0, 0.75, 0.0)
        res = analytic_threshold(Topology.down(MoKind.EO), caps, 0.58)
        assert res.n_th_max == pytest.approx(100.0 * (1 - math.exp(-1.16)) / 2.0, rel=1e-14)
        assert res.n_th_max == pytest.approx(34.3257, abs=2e-4)

    def test_eo_swap_example(self):
        caps = DeviceCaps(100.0, 10.0, 1.0, 0.75, 0.0)
        res = analytic_threshold(Topology.swap_sym(MoKind.EO), caps, 0.58)
        assert res.n_th_max == pytest.approx(
            100.0 * math.sinh(0.58) ** 2 / math.cosh(1.16), rel=1e-14
        )
        assert res.n_th_max == pytest.approx(21.4566, abs=2e-4)

    def test_im_swap_example(self):
        caps = DeviceCaps(100.0, 10.0, 0.75, 0.75, 0.0)
        res = analytic_threshold(Topology.swap_sym(MoKind.IM), caps, 0.0)
        assert res.n_th_max == pytest.approx(49.0, rel=1e-12)

    def test_negative_cells_flagged_infeasible(self):
        caps = DeviceCaps(100.0, 10.0, 0.5, 0.75, 0.0)
        res = analytic_threshold(Topology.swap_sym(MoKind.IM), caps, 0.0)
        assert not res.can_entangle and res.n_th_max == 0.0
        # EM swapping cannot entangle when 2 tau_a tau_b <= 1
        caps = DeviceCaps(100.0, 100.0, 0.7, 0.7, 0.0)
        res = analytic_threshold(Topology.swap_sym(MoKind.EM), caps, 0.0)
        assert not res.can_entangle

    def test_zero_squeezing_disables_eo_rows(self):
        caps = DeviceCaps(100.0, 10.0, 0.9, 0.75, 0.0)
        for t in (Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO)):
            assert not analytic_threshold(t, caps, 0.0).can_entangle

    def test_asymmetric_rejected(self):
        caps = DeviceCaps(100.0, 10.0, 0.9, 0.75, 0.0)
        with pytest.raises(ValueError):
            analytic_threshold(Topology.swap_asym(MoKind.IM, MoKind.EO), caps, 0.5)

    def test_em_rows_at_given_cooperativities(self):
        # the EM-swap row maximizes this closed form over the caps
        want = 0.8 * 10.0 - (1 + 11.0 + 10.0) ** 2 / (8 * 0.9 * 11.0)
        assert _em_swap_cell(11.0, 10.0, 0.9, 0.8) == pytest.approx(want, rel=1e-12)

    def test_all_cells_below_global_bound(self, rng):
        # EM cells are sampled at drawn cooperativities, through the closed
        # forms that their rows maximize; the other rows are the optimized cells
        for _ in range(10000):
            caps = random_caps(rng)
            r = rng.uniform(0.0, 1.2)
            bound = caps.tau_a * caps.d_a * (1 + 1e-12)
            for t in (
                Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO),
                Topology.down(MoKind.IO), Topology.swap_sym(MoKind.IO),
                Topology.down(MoKind.IM), Topology.swap_sym(MoKind.IM),
            ):
                assert analytic_threshold(t, caps, r).n_th_max <= bound
            c_a = rng.uniform(0.0, 1.0) * caps.d_a
            c_b = rng.uniform(0.0, 1.0) * caps.d_b
            assert _em_down_cell(c_a, c_b, caps.tau_a, caps.tau_b, caps.d_a) <= bound
            assert _em_swap_cell(c_a, c_b, caps.tau_a, caps.tau_b) <= bound


def _em_swap_candidates(caps: DeviceCaps) -> list[tuple[float, float]]:
    """Closed-form candidates for the optimum of the EM-swap cell.

    c_a = 1 + c_b (clamped to d_a) along the corners, the kink
    c_b = d_a - 1 and the stationary point of the clamped branch c_a = d_a.
    """
    da, db, ta, tb = caps.d_a, caps.d_b, caps.tau_a, caps.tau_b
    cbs = (0.0, db, da - 1.0, 4.0 * ta * tb * da - 1.0 - da)
    return [(min(da, 1.0 + cb), cb) for cb in (min(max(v, 0.0), db) for v in cbs)]


def _em_down_search(caps: DeviceCaps) -> float:
    """The EM-down cell maximized by a search: the ranked log grid, then Nelder-Mead.

    Seeded with the all-max corner only, so that it does not share the
    edge points of the closed form.
    """
    cell = lambda x: _em_down_cell(x[0], x[1], caps.tau_a, caps.tau_b, caps.d_a)
    hi = [caps.d_a, caps.d_b]
    starts = _ranked_starts(cell, hi, [hi], 3)
    return float(maximize_box(cell, [0.0, 0.0], hi, starts, nm_max_iter=200)[1])


class TestEmOracle:
    """The EM rows of analytic_threshold: EM-down, a closed form, against a
    search; EM-swap, a search where 2 tau_a tau_b > 1 and 4 tau_a tau_b
    d_a > 1 + d_a, against its closed-form candidates, and a closed form
    elsewhere, against both."""

    def _check(self, caps, r):
        down = analytic_threshold(Topology.down(MoKind.EM), caps, r)
        searched = _em_down_search(caps)
        assert down.can_entangle == (searched > 0.0), caps
        assert down.n_th_max >= searched - 1e-12 * abs(searched), (caps, down, searched)
        t = Topology.swap_sym(MoKind.EM)
        got = analytic_threshold(t, caps, r)
        best = max(
            _em_swap_cell(ca, cb, caps.tau_a, caps.tau_b) for ca, cb in _em_swap_candidates(caps)
        )
        assert got.can_entangle == (best > 0.0), (t.label, caps)
        if best > 0.0:
            rel = abs(got.n_th_max - best) / best
            assert rel <= 1e-12, (t.label, caps, got.n_th_max, best)

    def test_random_caps(self, rng):
        for _ in range(300):
            self._check(random_caps(rng), rng.uniform(0.0, 1.2))

    @pytest.mark.parametrize("d_a, d_b", [(0.0, 50.0), (0.0, 0.0), (200.0, 0.0), (0.3, 0.0)])
    def test_zero_caps(self, d_a, d_b):
        for tau_a, tau_b in ((0.95, 0.9), (0.6, 0.55)):
            self._check(DeviceCaps(d_a, d_b, tau_a, tau_b, 0.0), 0.4)

    def test_zero_tau_a_cannot_entangle(self):
        # every EM-swap cell is -inf at tau_a = 0, on floats and on arrays
        caps = DeviceCaps(1.0, 1.0, 0.0, 0.5, 0.0)
        self._check(caps, 0.4)
        assert not analytic_threshold(Topology.swap_sym(MoKind.EM), caps).can_entangle
        cells = _em_swap_cell(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 0.0, 0.5)
        assert np.all(cells == -math.inf)

    @staticmethod
    def _exit_caps(rng):
        """Random caps with c_b* = 0, then the edges of the exit.

        First 2 tau_a tau_b <= 1, then 2 tau_a tau_b > 1 with d_a <=
        1/(4 tau_a tau_b - 1), that is 4 tau_a tau_b d_a <= 1 + d_a.
        """
        drawn = []
        for _ in range(200):
            tau_a = rng.uniform(0.01, 1.0)
            tau_b = min(1.0, rng.uniform(0.0, 1.0) / (2.0 * tau_a))
            drawn.append(DeviceCaps(10.0 ** rng.uniform(-2.0, 4.0), 10.0 ** rng.uniform(-2.0, 3.0),
                                    tau_a, tau_b, 0.0))
        for _ in range(200):
            tau_a = rng.uniform(0.51, 1.0)
            tau_b = rng.uniform(0.5 / tau_a, 1.0)
            d_a = 10.0 ** rng.uniform(-4.0, 0.0) / (4.0 * tau_a * tau_b - 1.0)
            drawn.append(DeviceCaps(d_a, 10.0 ** rng.uniform(-2.0, 3.0), tau_a, tau_b, 0.0))
        edges = [
            DeviceCaps(50.0, 20.0, 1.0, 0.5, 0.0),  # the tie 2 tau_a tau_b = 1
            DeviceCaps(0.4, 20.0, 1.0, 0.5, 0.0),  # the tie with d_a < 1
            DeviceCaps(0.3, 5.0, 0.7, 0.6, 0.0),  # d_a < 1
            DeviceCaps(10.0, 5.0, 0.0, 0.9, 0.0),  # tau_a = 0
            DeviceCaps(0.0, 5.0, 0.6, 0.8, 0.0),  # d_a = 0
            DeviceCaps(10.0, 0.0, 0.6, 0.8, 0.0),  # d_b = 0
            DeviceCaps(0.5, 20.0, 1.0, 0.75, 0.0),  # the tie 4 tau_a tau_b d_a = 1 + d_a
            DeviceCaps(0.0, 5.0, 0.9, 0.8, 0.0),  # d_a = 0 with 2 tau_a tau_b > 1
            DeviceCaps(0.3, 0.0, 0.9, 0.8, 0.0),  # d_b = 0 with 2 tau_a tau_b > 1
        ]
        return drawn + edges

    def test_no_search_where_c_b_star_is_zero(self, rng, monkeypatch):
        # c_b* = 0, c_a* = min(d_a, 1) (the proof is in _maximize_em_swap_cell's
        # docstring), checked against the closed-form candidates and a search
        # that the test builds itself; the library's search is made to raise
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(thresholds, "maximize_box", no_search)
        t = Topology.swap_sym(MoKind.EM)
        with pytest.raises(AssertionError, match="searched"):
            analytic_threshold(t, DeviceCaps(10.0, 5.0, 0.9, 0.8, 0.0))
        # one ulp past the tie 4 tau_a tau_b d_a = 1 + d_a, c_b* > 0: searched
        with pytest.raises(AssertionError, match="searched"):
            analytic_threshold(t, DeviceCaps(math.nextafter(0.5, math.inf), 20.0, 1.0, 0.75, 0.0))
        for caps in self._exit_caps(rng):
            ta, tb, da = caps.tau_a, caps.tau_b, caps.d_a
            assert not (2.0 * ta * tb > 1.0 and 4.0 * ta * tb * da > 1.0 + da), caps
            c_a = min(da, 1.0)
            got = analytic_threshold(t, caps, 0.4)
            assert got.argmax == (c_a, 0.0, c_a, 0.0), caps
            assert not got.can_entangle and got.n_th_max == 0.0, caps
            value = _em_swap_cell(c_a, 0.0, ta, tb)
            assert value < 0.0, caps
            for ca, cb in _em_swap_candidates(caps):
                assert _em_swap_cell(ca, cb, ta, tb) <= value, (caps, ca, cb)
            cell = lambda x: _em_swap_cell(x[0], x[1], ta, tb)
            hi = [caps.d_a, caps.d_b]
            starts = _ranked_starts(cell, hi, [hi, [c_a, caps.d_b]], 3)
            x, searched = maximize_box(cell, [0.0, 0.0], hi, starts, nm_max_iter=200)
            # the cell rounds: near c_a = 1 it may read a few ulps above its value there
            slack = 0.0 if value == -math.inf else 1e-13 * (abs(value) + tb * caps.d_b)
            assert searched <= value + slack, (caps, x, searched, value)

    def test_em_cells_take_arrays(self, rng):
        # the ranked start pool evaluates the cells on arrays; every entry,
        # -inf at c_a <= 0 included, equals the float evaluation
        c_a = np.concatenate([[0.0, -1.0], 10.0 ** rng.uniform(-3.0, 3.0, 40)])
        c_b = 10.0 ** rng.uniform(-3.0, 3.0, 42)
        swap = _em_swap_cell(c_a, c_b, 0.9, 0.8)
        down = _em_down_cell(c_a, c_b, 0.9, 0.8, 50.0)
        assert swap[0] == swap[1] == -math.inf
        for i in range(len(c_a)):
            assert swap[i] == _em_swap_cell(float(c_a[i]), float(c_b[i]), 0.9, 0.8)
            assert down[i] == _em_down_cell(float(c_a[i]), float(c_b[i]), 0.9, 0.8, 50.0)


class TestMaxStableCa:
    def test_first_criterion_binds_with_default_rates(self):
        caps = DeviceCaps(100.0, 10.0, 0.9, 0.8, 0.0)
        assert max_stable_ca(caps, 10.0) == pytest.approx(11.0, abs=1e-6)

    def test_cap_binds_when_stability_does_not(self):
        caps = DeviceCaps(0.5, 20.0, 0.9, 0.8, 0.0)
        assert max_stable_ca(caps, 10.0) == 0.5

    def test_equal_rates_second_criterion_slack(self):
        caps = DeviceCaps(100.0, 10.0, 0.9, 0.8, 0.0, rates=PhysicalRates(70.0, 70.0, 1.0))
        # bound identical to the first criterion alone
        assert max_stable_ca(caps, 4.0) == pytest.approx(5.0, abs=1e-6)

    def test_second_criterion_can_bind(self):
        rates = PhysicalRates(1000.0, 50.0, 1.0)
        caps = DeviceCaps(26000.0, 124.0, 0.7, 0.3, 1000.0, rates=rates)
        got = max_stable_ca(caps, 124.0)
        want = (124.0 * 50.0 / 1001.0 + 1050.0) * 51.0 / 1000.0
        assert got == pytest.approx(want, abs=1e-6)

    def test_returns_above_the_spacing_of_its_tolerance(self):
        # above a bound of about 5.2e5 adjacent floats lie more than 1e-10
        # apart; the bisection stops at the largest stable float
        caps = DeviceCaps(2e6, 6e5, 0.9, 0.8, 0.0)
        assert max_stable_ca(caps, 6e5) == _stable_bound(caps, 6e5, True)

    def test_out_of_range_c_b(self):
        caps = DeviceCaps(10.0, 5.0, 0.9, 0.8, 0.0)
        with pytest.raises(ValueError):
            max_stable_ca(caps, 6.0)

    def test_equals_the_bisection_on_stability_ok(self, rng):
        # max_stable_ca computes the stability bound once per call; it must
        # return what a bisection on stability_ok itself returns, bit for bit
        def reference(caps, c_b):
            def stable(c_a):
                return stability_ok(caps.params(c_a, c_b, sigma_a=1), caps.rates)

            if stable(caps.d_a):
                return caps.d_a
            lo, hi = 0.0, caps.d_a
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                if stable(mid):
                    lo = mid
                else:
                    hi = mid
            return lo

        capped = bisected = 0
        for _ in range(300):
            kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 3.0, 2)).tolist()
            rates = PhysicalRates(kappa_a, kappa_b, 10.0 ** rng.uniform(-1.0, 1.0))
            caps = random_caps(rng, rates)
            u = rng.uniform()
            c_b = 0.0 if u < 0.1 else caps.d_b if u < 0.3 else rng.uniform(0.0, caps.d_b)
            got, want = max_stable_ca(caps, c_b), reference(caps, c_b)
            assert got == want, (caps, c_b, got, want)
            capped += got == caps.d_a
            bisected += got < caps.d_a
        assert capped >= 30 and bisected >= 30, (capped, bisected)

    def test_stable_bound_is_the_largest_stable_float(self, rng):
        # where its cap does not bind, _stable_bound is admitted by
        # stability_ok and the next float up is not, on either blue side;
        # max_stable_ca lies within its 1e-10 bisection tolerance below it
        binds = {"first": 0, "second": 0}
        for _ in range(400):
            kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 3.0, 2)).tolist()
            rates = PhysicalRates(kappa_a, kappa_b, 10.0 ** rng.uniform(-1.0, 1.0))
            caps = random_caps(rng, rates)
            for optical in (True, False):
                d_plus, d_minus = (caps.d_a, caps.d_b) if optical else (caps.d_b, caps.d_a)
                u = rng.uniform()
                c_red = 0.0 if u < 0.1 else d_minus if u < 0.2 else rng.uniform(0.0, d_minus)
                bound = _stable_bound(caps, c_red, optical)
                if bound == d_plus:
                    continue
                sigmas = (1, -1) if optical else (-1, 1)

                def stable(c_blue):
                    cs = (c_blue, c_red) if optical else (c_red, c_blue)
                    return stability_ok(caps.params(*cs, *sigmas), rates)

                config = (caps, c_red, optical)
                assert stable(bound), config
                assert not stable(math.nextafter(bound, math.inf)), config
                if optical:
                    assert bound - 1e-10 <= max_stable_ca(caps, c_red) <= bound, config
                k_plus, k_minus = (kappa_a, kappa_b) if optical else (kappa_b, kappa_a)
                g = rates.gamma_m
                second = (c_red * k_minus * g / (k_plus + g) + k_plus + k_minus) * (
                    k_minus + g
                ) / (k_plus * g)
                binds["first" if c_red + 1.0 <= second else "second"] += 1
        assert min(binds.values()) >= 50, binds


class TestNumericThreshold:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_analytic_rows(self, seed):
        from gausslink.sampling import generator

        rng = generator(seed, stream=11)
        caps = random_caps(rng)
        r = rng.uniform(0.0, 1.2)
        for t in (
            Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO),
            Topology.down(MoKind.IO), Topology.swap_sym(MoKind.IO),
            Topology.down(MoKind.IM), Topology.swap_sym(MoKind.IM),
        ):
            a = analytic_threshold(t, caps, r)
            b = numeric_threshold(t, caps, r)
            assert a.can_entangle == b.can_entangle
            if a.can_entangle:
                assert b.n_th_max == pytest.approx(a.n_th_max, rel=1e-6)

    def test_matches_em_cell_maximization(self):
        caps = DeviceCaps(40.0, 30.0, 0.95, 0.9, 0.0)
        for t in (Topology.down(MoKind.EM), Topology.swap_sym(MoKind.EM)):
            a = analytic_threshold(t, caps, 0.7)
            b = numeric_threshold(t, caps, 0.7)
            assert b.n_th_max == pytest.approx(a.n_th_max, rel=1e-6)

    def test_tiny_threshold_keeps_relative_agreement(self):
        # seed 102 of the benchmark's threshold_crosscheck stream: a threshold
        # of 1.075e-8 that an absolute stopping width of 1e-12 tau_a d_a
        # resolved only to 1e-5 relative
        caps = DeviceCaps(
            d_a=0.5783979007966915, d_b=8.275897350723584,
            tau_a=0.9064244129022773, tau_b=0.6362857930526407, n_th=0.0,
        )
        r = 0.0001432204201032805
        t = Topology.swap_sym(MoKind.EO)
        a = analytic_threshold(t, caps, r)
        b = numeric_threshold(t, caps, r)
        assert a.n_th_max == pytest.approx(1.0753953983207006e-08, rel=1e-12)
        assert b.can_entangle
        # explicit: pytest.approx would also accept any error below 1e-12
        assert abs(b.n_th_max - a.n_th_max) <= 1e-6 * a.n_th_max

    def test_infeasible_flagged(self):
        caps = DeviceCaps(100.0, 10.0, 0.5, 0.75, 0.0)
        res = numeric_threshold(Topology.swap_sym(MoKind.IM), caps, 0.0)
        assert not res.can_entangle and res.n_th_max == 0.0

    def test_boundary_consistency(self):
        caps = DeviceCaps(80.0, 12.0, 0.85, 0.8, 0.0)
        t = Topology.down(MoKind.IM)
        res = numeric_threshold(t, caps, 0.0)
        eps = 1e-6 * res.n_th_max
        below = DeviceCaps(80.0, 12.0, 0.85, 0.8, res.n_th_max - 10 * eps)
        above = DeviceCaps(80.0, 12.0, 0.85, 0.8, res.n_th_max + 10 * eps)
        _, e_below = optimize_cooperativities(t, below, below.n_th, 0.0)
        _, e_above = optimize_cooperativities(t, above, above.n_th, 0.0)
        assert e_below > 0.0
        assert e_above == 0.0

    def test_threshold_monotone_in_d_a(self):
        prev = 0.0
        for d_a in np.geomspace(1.0, 1e3, 8):
            caps = DeviceCaps(d_a, 5.0, 0.9, 0.8, 0.0)
            res = numeric_threshold(Topology.down(MoKind.EO), caps, 0.6)
            assert res.n_th_max >= prev - 1e-9
            prev = res.n_th_max

    @pytest.mark.parametrize(
        "topo",
        [Topology.down(MoKind.EO), Topology.down(MoKind.EM),
         Topology.down(MoKind.IM), Topology.swap_sym(MoKind.IM)],
        ids=lambda t: t.label,
    )
    def test_analytic_threshold_monotone_in_d_a(self, topo):
        prev = 0.0
        for d_a in np.geomspace(0.1, 1e4, 40):
            caps = DeviceCaps(d_a, 5.0, 0.9, 0.8, 0.0)
            val = analytic_threshold(topo, caps, 0.6).n_th_max
            assert val >= prev - 1e-12
            prev = val

    def test_intrinsic_swap_rows_dead_below_half_transmissivity(self, rng):
        # measured-arm loss beyond 3 dB kills every swapping route whose
        # threshold carries the (2 tau_a - 1) factor
        for _ in range(200):
            tau_a = rng.uniform(0.05, 0.5)
            caps = DeviceCaps(
                10.0 ** rng.uniform(-1.0, 3.0), 10.0 ** rng.uniform(-1.0, 2.0),
                tau_a, rng.uniform(0.5, 1.0), 0.0,
            )
            for kind in (MoKind.IO, MoKind.IM):
                assert not analytic_threshold(Topology.swap_sym(kind), caps, 0.8).can_entangle

    def test_zero_cap_is_infeasible(self):
        caps = DeviceCaps(0.0, 5.0, 0.9, 0.8, 0.0)
        for topo in (Topology.down(MoKind.EO), Topology.swap_sym(MoKind.IM)):
            assert not analytic_threshold(topo, caps, 0.8).can_entangle
            assert not numeric_threshold(topo, caps, 0.8).can_entangle

    def test_no_row_entangles_without_d_b_or_tau_b(self):
        # the closed forms are suprema over C_b > 0; at C_b = 0 or tau_b = 0
        # no converter transmits and no intrinsic source correlates
        for caps in (DeviceCaps(100.0, 0.0, 0.9, 0.8, 0.0), DeviceCaps(100.0, 50.0, 0.9, 0.0, 0.0)):
            for topo in SYMMETRIC_TOPOLOGIES:
                res = analytic_threshold(topo, caps, 0.5)
                assert (res.n_th_max, res.can_entangle) == (0.0, False), (topo.label, caps)
                assert not numeric_threshold(topo, caps, 0.5).can_entangle, (topo.label, caps)

    def test_tiny_d_b_or_tau_b_keeps_the_closed_forms(self):
        # any C_b > 0 keeps the suprema of the six rows that the rule above zeroes
        labels = ("EO-down", "EO-swap", "IO-down", "IO-swap", "IM-down", "IM-swap")
        for caps, values in (
            (DeviceCaps(100.0, 1e-300, 0.9, 0.8, 0.0), (28.445425147285096, 15.837557685125159,
             8.513878184359456, 0.7999999991443474, 52.70004844960103, 79.0)),
            (DeviceCaps(100.0, 50.0, 0.9, 1e-300, 0.0), (28.445425147285096, 15.837557685125159,
             43.646583429407755, 40.79999999914435, 52.70004844960103, 79.0)),
        ):
            for topo in SYMMETRIC_TOPOLOGIES:
                if topo.label in labels:
                    res = analytic_threshold(topo, caps, 0.5)
                    want = values[labels.index(topo.label)]
                    assert (res.n_th_max, res.can_entangle) == (want, True), (topo.label, caps)


class TestOptimizeCooperativities:
    def test_beats_grid_scan(self):
        caps = DeviceCaps(30.0, 6.0, 0.9, 0.85, 2.0)
        t = Topology.down(MoKind.EO)
        cs, e = optimize_cooperativities(t, caps, caps.n_th, 0.7)
        grid_best = 0.0
        for ca in np.linspace(0.3, 30.0, 60):
            for cb in np.linspace(0.1, 6.0, 60):
                cfg = NetworkConfig(caps, ca, cb, ca, cb, r=0.7)
                grid_best = max(grid_best, mm_log_negativity(t, cfg))
        assert e >= grid_best - 1e-9

    def test_dominates_maximal_corner(self, rng):
        for _ in range(30):
            caps = random_caps(rng)
            r = rng.uniform(0.0, 1.2)
            caps = DeviceCaps(caps.d_a, caps.d_b, caps.tau_a, caps.tau_b,
                              0.3 * caps.tau_a * caps.d_a)
            for t in (Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO),
                      Topology.down(MoKind.EM)):
                cs, e = optimize_cooperativities(t, caps, caps.n_th, r,
                                                 n_starts=6, nm_max_iter=80)
                cfg = NetworkConfig(caps, caps.d_a, caps.d_b, caps.d_a, caps.d_b, r=r)
                corner = mm_log_negativity(t, cfg)
                assert e >= corner - 1e-12

    def test_em_interior_optimum_exists(self):
        # a caps draw where capping both cooperativities is suboptimal
        caps = DeviceCaps(200.0, 1000.0, 0.95, 0.9, 0.0)
        res = analytic_threshold(Topology.down(MoKind.EM), caps)
        (ca, cb, _, _), val = res.argmax, res.n_th_max
        at_corner = _em_down_cell(caps.d_a, caps.d_b, caps.tau_a, caps.tau_b, caps.d_a)
        assert cb < caps.d_b - 1.0
        assert val > at_corner + 1e-6

    def test_array_margin_equals_scalar_margin(self, rng):
        # the start ranking evaluates a margin closure on arrays; every entry
        # must equal the float evaluation, -inf (unstable) included
        n_inf = n_finite = 0
        for _ in range(6):
            caps = random_caps(rng)
            rates = PhysicalRates(rng.uniform(1.0, 1e3), rng.uniform(1.0, 1e3), 1.0)
            caps = DeviceCaps(caps.d_a, caps.d_b, caps.tau_a, caps.tau_b,
                              rng.uniform(0.0, 2.0), rates)
            for t in ALL_TOPOLOGIES:
                split = default_loss_split(t, rng.uniform(0.5, 1.0))
                r = rng.uniform(0.0, 1.2)
                x = np.stack([rng.uniform(0.0, d, 60) for d in (caps.d_a, caps.d_b) * 2])
                # half the points within 1e-12..1 of the first stability criterion
                for ia, ib in ((0, 1), (2, 3)):
                    x[ia, :30] = np.clip(
                        1.0 + x[ib, :30] - 10.0 ** rng.uniform(-12.0, 0.0, 30), 0.0, caps.d_a
                    )
                # the pinned-downconverter margin serves downconversion only
                factories = (_margin_fn, _margin_fn4) + (
                    (_margin_fn_down,) if t.scheme == "down" else ()
                )
                for factory in factories:
                    margin = factory(t, caps, caps.n_th, r, split)
                    many = margin(x)
                    one = [margin(x[:, i].tolist()) for i in range(x.shape[1])]
                    assert np.array_equal(many, one), (t.label, factory.__name__)
                    n_inf += int(np.sum(np.isneginf(many)))
                    n_finite += int(np.sum(np.isfinite(many)))
        assert n_inf > 1000 and n_finite > 1000

    def test_swap_next_to_the_numeric_gap_stays_finite(self):
        # reaches an IO source 4e-8 inside its instability, where the swap's
        # output excess used to cancel to an unphysical value and log1p raised
        caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 0.2)
        t = Topology.swap_asym(MoKind.IM, MoKind.IO)
        cs, e = optimize_cooperativities(
            t, caps, 0.2, 0.8, tau_e=0.6, loss_split=(0.6, 1.0), n_starts=3, nm_max_iter=40
        )
        cfg = NetworkConfig(caps, *cs, r=0.8, tau_e=0.6, loss_split=(0.6, 1.0))
        assert e == pytest.approx(mm_log_negativity(t, cfg), abs=1e-12)
        assert math.isfinite(e) and e > 0.0

    @pytest.mark.parametrize(
        "split, message",
        [((2.0, 1.0), "multiplies to"), ((0.5,), "loss slot"), ((0.25, 2.0), "outside")],
    )
    def test_rejects_a_split_that_does_not_fit(self, split, message):
        caps = DeviceCaps(50.0, 8.0, 0.9, 0.85, 0.0)
        with pytest.raises(ValueError, match=message):
            optimize_cooperativities(
                Topology.swap_sym(MoKind.EO), caps, 0.0, 0.5,
                tau_e=0.5, loss_split=split, n_starts=1, nm_max_iter=10,
            )

    @pytest.mark.parametrize("n_th", [-5.0, math.nan, math.inf])
    def test_rejects_an_invalid_n_th(self, n_th):
        caps = DeviceCaps(50.0, 8.0, 0.9, 0.85, 0.0)
        t = Topology.swap_sym(MoKind.EO)
        with pytest.raises(ValueError, match="thermal occupancy must be finite and >= 0"):
            optimize_cooperativities(t, caps, n_th, 0.5)
        with pytest.raises(ValueError, match="thermal occupancy must be finite and >= 0"):
            optimize_loss_split(t, caps, n_th, 0.5, 0.5)

    @pytest.mark.parametrize(
        "n_starts, nm_max_iter, name",
        [(0, 10, "n_starts"), (-1, 10, "n_starts"), (2.0, 10, "n_starts"),
         (True, 10, "n_starts"), (3, -1, "nm_max_iter"), (3, 10.5, "nm_max_iter")],
    )
    def test_rejects_an_invalid_search_budget(self, n_starts, nm_max_iter, name):
        # n_starts=0 used to return the box midpoint with 0 e-bits, and
        # n_starts=-1 to start Nelder-Mead from the whole seed pool
        caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 0.2)
        t = Topology.swap_sym(MoKind.IM)
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            optimize_cooperativities(t, caps, 0.2, n_starts=n_starts, nm_max_iter=nm_max_iter)

    def test_search_budget_selects_nothing(self):
        # nothing is searched, so the smallest valid budget returns what the
        # default one does, bit for bit, an EM source at r > 0 included
        caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 0.2)
        for t in (Topology.swap_sym(MoKind.EM), Topology.down(MoKind.EM),
                  Topology.swap_asym(MoKind.EO, MoKind.IM)):
            small = optimize_cooperativities(t, caps, 0.2, 0.8, tau_e=0.7, n_starts=1,
                                             nm_max_iter=0)
            full = optimize_cooperativities(t, caps, 0.2, 0.8, tau_e=0.7)
            assert full[1] > 0.0, t.label
            assert repr(small) == repr(full), t.label

    def test_io_argmax_binds_stability(self):
        caps = DeviceCaps(100.0, 10.0, 0.9, 0.8, 0.0)
        res = numeric_threshold(Topology.swap_sym(MoKind.IO), caps, 0.0)
        assert res.argmax[0] == pytest.approx(max_stable_ca(caps, res.argmax[1]), rel=1e-6)


def _dense_grid(hi):
    """0, each cap, and a log and a linear ladder between them, on every axis."""
    k = 100 if len(hi) == 2 else 6
    axes = [
        np.unique(np.concatenate([[0.0], h * np.geomspace(1e-6, 1.0, k), np.linspace(0.0, h, k)]))
        for h in hi
    ]
    return np.stack(np.meshgrid(*axes, indexing="ij")).reshape(len(hi), -1)


def _corner_margin(box):
    """The margin at the clamped all-max corner, box.hi: cooperativities box.full(box.hi)."""
    return box.margin(box.hi)


def _corner_threshold(t, caps, r, tau_e, split):
    """n_th at which the all-max corner's margin turns <= 0, by bisection."""
    lo, hi = 0.0, caps.tau_a * caps.d_a
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        box = _CooperativityBox.of(t, caps, mid, r, tau_e, split)
        lo, hi = (lo, mid) if _corner_margin(box) <= 0.0 else (mid, hi)
    return hi


def _shortcut_draw(rng, t):
    """(caps, n_th, r, tau_e, split) with random rates and edge cases mixed in.

    The split is uniform (the mirrored 2-D search), the default one, or
    random shares.  r is 0 in a fifth of the draws and d_b tiny in about
    a seventh; n_th is 0 in a fifth, within 1e-6 above the n_th at which
    the corner's margin changes sign in a third, and spread over four
    decades below tau_a d_a otherwise.
    """
    kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
    rates = PhysicalRates(kappa_a, kappa_b, 10.0 ** rng.uniform(-1.0, 1.0))
    tiny = rng.uniform() < 0.15
    d_b = 10.0 ** (rng.uniform(-9.0, -5.0) if tiny else rng.uniform(-2.0, 3.0))
    caps = DeviceCaps(
        10.0 ** rng.uniform(-2.0, 4.0), d_b, rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0),
        0.0, rates,
    )
    r = 0.0 if rng.uniform() < 0.2 else rng.uniform(0.0, 1.5)
    n = loss_slot_count(t)
    kind = rng.integers(3)
    if kind == 0:
        split = [rng.uniform(0.3, 1.0)] * n
    elif kind == 1:
        split = list(default_loss_split(t, rng.uniform(0.3, 1.0)))
    else:
        split = rng.uniform(0.3, 1.0, n).tolist()
    tau_e, split = math.prod(split), tuple(split)
    u = rng.uniform()
    if u < 0.2:
        n_th = 0.0
    elif u < 0.53:
        n_th = _corner_threshold(t, caps, r, tau_e, split) * (1.0 + 10.0 ** rng.uniform(-9.0, -6.0))
    else:
        n_th = caps.tau_a * caps.d_a * 10.0 ** rng.uniform(-4.0, 0.0)
    return caps, n_th, r, tau_e, split


def _separable_at_mu_0(box) -> bool:
    """_NodeRoot.solve stops at mu = 0, at the zero point with a margin of 0."""
    return box.root().solve() == (box.full([0.0] * len(box.hi)), 0.0)


def _box_point(box, cs) -> list[float]:
    """The point of box's layout whose 4-tuple is cs: each node's axes (_NODE_AXES) of cs."""
    return [cs[2 * i + j] for i, (_, k) in enumerate(box.nodes) for j in thresholds._NODE_AXES[k]]


def _box_solve(box):
    """(4-tuple, margin) of box.root(), ascended on the box's own axes and margin.

    The root's argmax, cut to the box's axes, gives each step; the
    layout map box.full and the layout's margin closure box.margin do
    the rest, as the root did before its nodes pinned their points.
    """
    root = box.root()
    x, excess = root.argmax(0.0)
    if not excess > 0.0:
        return box.full([0.0] * len(box.hi)), 0.0
    x, m = thresholds._ascend(_box_point(box, x), box.margin,
                              lambda mu: _box_point(box, root.argmax(mu)[0]))
    return box.full(x), m


_NON_EM = [t for t in ALL_TOPOLOGIES if MoKind.EM not in t.kinds]


class TestCornerShortcut:
    """optimize_cooperativities returns 0 e-bits at once where the
    node-local condition fails at mu = 0, an EM source at r = 0 included.
    On layouts without an EM source the margin at the clamped all-max
    corner is its oracle."""

    def test_sound_on_random_draws(self):
        # wherever a cell stops at mu = 0, on all 14 topologies, neither a
        # dense grid of the margin nor the full search finds a positive margin
        rng = generator(20260808, stream=110)
        fired = mirrored = 0
        for i in range(560):
            t = ALL_TOPOLOGIES[i % len(ALL_TOPOLOGIES)]
            caps, n_th, r, tau_e, split = _shortcut_draw(rng, t)
            box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
            if not _separable_at_mu_0(box):
                continue
            config = (i, t.label, caps, n_th, r, split)
            cs, e = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
            assert e == 0.0 and cs == box.full([0.0] * len(box.hi)), config
            # the dense grid covers the whole box, without the converter pin;
            # a symmetric swap's box is its diagonal at every split, but off a
            # uniform split the grid still sets both nodes apart
            uniform = box.mirrored and len(set(split)) == 1
            free = (_margin_fn if uniform else _margin_fn4)(t, caps, n_th, r, split)
            hi = [caps.d_a, caps.d_b] * (1 if uniform else 2)
            assert np.max(free(_dense_grid(hi))) <= 0.0, config
            assert box.search(16, 250)[1] <= 0.0, config
            fired += 1
            mirrored += box.mirrored
        assert fired >= 200 and mirrored >= 30, (fired, mirrored)

    @pytest.mark.parametrize(
        "t",
        [Topology.down(k) for k in (MoKind.EO, MoKind.IO, MoKind.IM)]
        + [Topology.swap_sym(k) for k in (MoKind.EO, MoKind.IO, MoKind.IM)],
        ids=lambda t: t.label,
    )
    def test_fires_exactly_above_the_analytic_threshold(self, t):
        rng = generator(20260808, stream=111)
        checked = 0
        for _ in range(40):
            kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
            caps = random_caps(rng, PhysicalRates(kappa_a, kappa_b, 1.0))
            r = rng.uniform(0.1, 1.2)
            res = analytic_threshold(t, caps, r)
            if not res.can_entangle:
                continue
            for factor, fires in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
                box = _CooperativityBox.of(t, caps, res.n_th_max * factor, r)
                assert _separable_at_mu_0(box) is fires, (t.label, caps, r, factor)
            checked += 1
        assert checked >= 10

    def test_agrees_with_the_corner_on_random_draws(self):
        # the margin at the clamped all-max corner is the oracle: the node
        # values fail the condition at mu = 0 exactly where that margin is
        # <= 0, on every layout without an EM source, the asymmetric swaps
        # included.  The one exception, a corner margin that rounds above a
        # true 0 (the EO swap at share 1/2), has its own test in
        # TestMirroredEoPeak
        rng = generator(20260808, stream=118)
        separable = entangled = 0
        for i in range(40 * len(_NON_EM)):
            t = _NON_EM[i % len(_NON_EM)]
            caps, n_th, r, tau_e, split = _shortcut_draw(rng, t)
            box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
            corner = _corner_margin(box)
            assert corner > -math.inf
            config = (i, t.label, caps, n_th, r, split, corner)
            assert _separable_at_mu_0(box) == (corner <= 0.0), config
            separable += corner <= 0.0
            entangled += corner > 0.0
        assert separable >= 100 and entangled >= 100, (separable, entangled)

    def test_agrees_with_the_corner_on_both_sides_of_its_threshold(self):
        # within 1e-12 to 1e-6 relative of the n_th at which the corner's
        # margin changes sign, the node values decide as the corner does
        rng = generator(20260808, stream=119)
        checked = 0
        for i in range(10 * len(_NON_EM)):
            t = _NON_EM[i % len(_NON_EM)]
            caps, _, r, tau_e, split = _shortcut_draw(rng, t)
            if _corner_margin(_CooperativityBox.of(t, caps, 0.0, r, tau_e, split)) <= 0.0:
                continue  # the corner never entangles
            n_star = _corner_threshold(t, caps, r, tau_e, split)
            for sign in (1.0, -1.0):
                n_th = n_star * (1.0 + sign * 10.0 ** rng.uniform(-12.0, -6.0))
                box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
                config = (i, t.label, caps, n_th, r, split)
                assert _separable_at_mu_0(box) == (_corner_margin(box) <= 0.0) == (sign > 0), config
            checked += 1
        assert checked >= 50, checked

    def test_device_run_unchanged_without_the_shortcut(self, monkeypatch):
        # the EM cells, all at r = 0, stop at mu = 0; searched instead of
        # solved, they print the same text.  device-run builds no box, so
        # the search takes the place of each EM cell's _NodeRoot
        cfg = ExperimentConfig(experiment="device-run", points=13, jobs=1)
        _, text = cmd_device_run(cfg)
        of = _NodeRoot.of.__func__
        searched = []

        def busy(cls, t, caps, n_th, r, split):
            root = of(cls, t, caps, n_th, r, split)
            if MoKind.EM not in t.kinds:
                return root
            box = _CooperativityBox.of(t, caps, n_th, r, math.prod(split), split)
            assert r == 0.0 and root.solve() == (box.full([0.0] * len(box.hi)), 0.0)
            searched.append(t.label)

            def solve():
                x, m = box.search(16, 250)
                return box.full(x), m

            return SimpleNamespace(solve=solve)

        monkeypatch.setattr(_NodeRoot, "of", classmethod(busy))
        _, forced = cmd_device_run(cfg)
        assert text == forced
        assert len(searched) == 26, len(searched)

    def test_device_run_builds_no_corner_candidates(self, monkeypatch):
        def candidates(*args):
            raise AssertionError("device-run built corner candidates")

        monkeypatch.setattr(thresholds, "_corner_candidates", candidates)
        cfg = ExperimentConfig(experiment="device-run")
        rows, _ = cmd_device_run(cfg)
        assert len(rows) == cfg.points


_CONVERTER_TOPOLOGIES = [t for t in ALL_TOPOLOGIES if t.scheme == "down" or MoKind.EO in t.kinds]


def _with_pin(t, caps, x):
    """x (rows c_a1, c_b1, c_a2, c_b2) with each converter node's C_b at min(d_b, 1 + C_a)."""
    y = x.copy()
    if t.kinds[0] is MoKind.EO:
        y[1] = np.minimum(caps.d_b, 1.0 + y[0])
    if t.scheme == "down" or t.kinds[1] is MoKind.EO:
        y[3] = np.minimum(caps.d_b, 1.0 + y[2])
    return y


class TestConverterPin:
    """A red-red converter whose output is a final microwave mode (an EO
    source's converter, a downconverter) is best at C_b = min(d_b, 1 + C_a)."""

    def test_pin_never_lowers_the_entanglement(self):
        # at random points of the full box, moving each converter's C_b to
        # the pin keeps every entangled margin or raises it.  A separable
        # margin is not ordered: the pin undoes a pure loss, and loss moves
        # a separable state's margin up toward 0
        rng = generator(20260808, stream=112)
        entangled = below = 0
        for i in range(40 * len(_CONVERTER_TOPOLOGIES)):
            t = _CONVERTER_TOPOLOGIES[i % len(_CONVERTER_TOPOLOGIES)]
            caps, n_th, r, tau_e, split = _shortcut_draw(rng, t)
            free = _margin_fn4(t, caps, n_th, r, split)
            spread = 10.0 ** rng.uniform(-4.0, 0.0, (4, 200))
            x = np.array([caps.d_a, caps.d_b] * 2)[:, None] * np.where(
                rng.uniform(size=(4, 200)) < 0.5, spread, rng.uniform(size=(4, 200))
            )
            m, m_pin = free(x), free(_with_pin(t, caps, x))
            ent = m > 0.0
            assert np.all(m_pin[ent] >= m[ent] - 1e-13), (i, t.label, caps, n_th, r, split)
            entangled += int(np.sum(ent))
            below += int(np.sum(ent & ((1.0 + x[0] < caps.d_b) | (1.0 + x[2] < caps.d_b))))
        assert entangled >= 8000 and below >= 2000, (entangled, below)

    def test_box_margin_is_the_free_margin_at_the_pin(self, rng):
        # the box searches only the free axes, and box.full expands a point
        # into the cooperativities at which the unpinned margin takes the
        # same value, bit for bit, on floats and on arrays
        for _ in range(4):
            kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
            caps = random_caps(rng, PhysicalRates(kappa_a, kappa_b, 1.0))
            caps = DeviceCaps(caps.d_a, caps.d_b, caps.tau_a, caps.tau_b,
                              0.1 * caps.tau_a * caps.d_a, caps.rates)
            for t in ALL_TOPOLOGIES:
                r, tau_e = rng.uniform(0.0, 1.2), rng.uniform(0.5, 1.0)
                for split in (None, (tau_e ** (1.0 / loss_slot_count(t)),) * loss_slot_count(t)):
                    box = _CooperativityBox.of(t, caps, caps.n_th, r, tau_e, split)
                    split = split or default_loss_split(t, tau_e)
                    factory = _margin_fn if box.mirrored else _margin_fn4
                    free = factory(t, caps, caps.n_th, r, split)
                    x = np.array(box.hi)[:, None] * rng.uniform(size=(len(box.hi), 40))
                    many = box.margin(x)
                    for i in range(x.shape[1]):
                        point = x[:, i].tolist()
                        cs = box.full(point)
                        assert box.margin(point) == many[i]
                        assert free(cs if not box.mirrored else cs[:2]) == many[i]
                        if t.kinds[0] is MoKind.EO:
                            assert cs[1] == min(caps.d_b, 1.0 + cs[0])

    def test_device_run_search_dimensions(self):
        # one axis per free cooperativity: a converter node keeps only C_a,
        # an IO or IM source only its red-pumped side, an EM source both.
        # The symmetric swaps mirror at every split, and the root's 4-tuple
        # is the box's layout at a point of the box's dimension on every column
        caps = PRESETS["brubaker2022"]["caps"]
        dims = {"eo_down": 1, "eo_swap": 1, "eo_swap_eqsplit": 1, "em_down": 3,
                "em_swap": 2, "io_down": 2, "io_swap": 1, "im_down": 2, "im_swap": 1,
                "im_swap_eqsplit": 1, "im_eo_swap_asym": 2}
        for tau_e in (0.5, 1.0):
            for name, t, r, equal in _device_cells((3.0, 10.0)):
                split = (math.sqrt(tau_e),) * 2 if equal else None
                box = _CooperativityBox.of(t, caps, caps.n_th, r, tau_e, split)
                column = name.rsplit("_", 1)[0] if name.endswith("db") else name
                assert len(box.hi) == dims[column], (name, tau_e)
                cs, _ = box.root().solve()
                x = _box_point(box, cs)
                assert len(x) == dims[column] and box.full(x) == cs, (name, tau_e, cs)

    def test_argmax_satisfies_the_pin(self):
        rng = generator(20260808, stream=113)
        searched = 0
        for i in range(6 * len(_CONVERTER_TOPOLOGIES)):
            t = _CONVERTER_TOPOLOGIES[i % len(_CONVERTER_TOPOLOGIES)]
            caps, n_th, r, tau_e, split = _shortcut_draw(rng, t)
            cs, e = optimize_cooperativities(
                t, caps, n_th, r, tau_e=tau_e, loss_split=split, n_starts=2, nm_max_iter=40
            )
            config = (i, t.label, caps, n_th, r, split, cs)
            if t.kinds[0] is MoKind.EO:
                assert cs[1] == min(caps.d_b, 1.0 + cs[0]), config
            if t.scheme == "down" or t.kinds[1] is MoKind.EO:
                assert cs[3] == min(caps.d_b, 1.0 + cs[2]), config
            cfg = NetworkConfig(replace(caps, n_th=n_th), *cs, r=r, tau_e=tau_e, loss_split=split)
            assert e == pytest.approx(mm_log_negativity(t, cfg), abs=1e-12), config
            searched += e > 0.0
        assert searched >= 15, searched


_MIRRORED_EO = (Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO))


def _pin_line_search(t, caps, n_th, r, split) -> tuple[float, float]:
    """(C_a, margin) of the best point on the converter pin, by a scan.

    The free mirrored margin, at C_b = min(d_b, 1 + C_a), is scanned on
    0, d_a and a log and a linear ladder between them; each of 12 rounds
    then rescans the two steps around the best point so far.  Neither the
    node-local root nor maximize_box takes part.
    """
    free = _margin_fn(t, caps, n_th, r, split)
    d_a, d_b = caps.d_a, caps.d_b
    x = np.unique(np.concatenate([[0.0], d_a * np.geomspace(1e-9, 1.0, 400),
                                  np.linspace(0.0, d_a, 400)]))
    best_x, best = 0.0, -math.inf
    for _ in range(12):
        m = free(np.stack([x, np.minimum(d_b, 1.0 + x)]))
        i = int(np.argmax(m))
        if m[i] > best:
            best_x, best = float(x[i]), float(m[i])
        x = np.linspace(x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)], 41)
    return best_x, best


def _mirrored_eo_draw(rng, t, edge):
    """(caps, n_th, r, tau_e, split) for a mirrored EO layout at one of the edges.

    Caps run from 1e-2 to 1e7 and transmissivities from 0.05 to 1; the
    swap's share is above 1/2, where it can entangle.  n_th is 0 in a
    fifth of the draws, else log-spread below tau_a d_a.
    """
    d_a, d_b = (10.0 ** rng.uniform(-2.0, 7.0, 2)).tolist()
    if edge == "d_a below d_b - 1":
        d_b = 1.0 + d_a * 10.0 ** rng.uniform(0.1, 3.0)
    elif edge == "d_a within 1 of d_b":
        d_b = 10.0 ** rng.uniform(0.0, 5.0)
        d_a = d_b - 1.0 + rng.uniform(0.0, 2.0)
    elif edge == "caps up to 1e7":
        d_a, d_b = (10.0 ** rng.uniform(5.0, 7.0, 2)).tolist()
    caps = DeviceCaps(d_a, d_b, rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), 0.0)
    r = 10.0 ** rng.uniform(-8.0, -3.0) if edge == "small r" else rng.uniform(0.0, 2.5)
    if t.scheme == "down":
        share = math.sqrt(rng.uniform(0.05, 1.0))
    elif edge == "share just above 1/2":
        share = 0.5 + 10.0 ** rng.uniform(-12.0, -6.0)
    else:
        share = rng.uniform(0.5, 1.0)
    zero = edge == "n_th = 0" or rng.uniform() < 0.2
    n_th = 0.0 if zero else caps.tau_a * d_a * 10.0 ** rng.uniform(-12.0, 0.0)
    return caps, n_th, r, share * share, (share, share)


class TestMirroredEoPeak:
    """down(EO) at a uniform split and the EO swap at any split: the
    node-local root reaches the best point on the converter pin, which is
    min(d_a, 1 + d_b) at n_th = 0, and nothing is searched."""

    @pytest.mark.parametrize("edge", [
        "random", "n_th = 0", "d_a below d_b - 1", "d_a within 1 of d_b", "small r",
        "share just above 1/2", "caps up to 1e7",
    ])
    @pytest.mark.parametrize("t", _MIRRORED_EO, ids=lambda t: t.label)
    def test_reaches_the_scanned_maximum(self, t, edge):
        rng = generator(20260808, stream=116)
        entangled = 0
        for i in range(40):
            caps, n_th, r, tau_e, split = _mirrored_eo_draw(rng, t, edge)
            cs, e = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
            x, m = _pin_line_search(t, caps, n_th, r, split)
            scanned = _log2_negativity(m)
            config = (i, edge, t.label, caps, n_th, r, split, cs, x)
            assert e >= scanned - 1e-12 * max(1.0, scanned), config
            assert (e > 0.0) == (scanned > 0.0), config
            assert cs[1] == min(caps.d_b, 1.0 + cs[0]) and cs[2:] == cs[:2], config
            cfg = NetworkConfig(replace(caps, n_th=n_th), *cs, r=r, tau_e=tau_e, loss_split=split)
            assert e == pytest.approx(mm_log_negativity(t, cfg), abs=1e-12), config
            if e > 0.0:
                entangled += 1
                # where the cap binds, the peak is the cap itself
                if edge == "n_th = 0":
                    assert cs[0] == min(caps.d_a, 1.0 + caps.d_b), config
                elif edge in ("d_a below d_b - 1", "d_a within 1 of d_b"):
                    assert cs[0] == caps.d_a, config
        assert entangled >= 10, entangled

    def test_searches_nothing(self, monkeypatch):
        # the mirrored EO layouts never reach the search, the EO swap at its
        # default split, the asymmetric IM+EO swap and an EM source at r > 0
        # neither
        caps = PRESETS["brubaker2022"]["caps"]
        calls = []
        search = _CooperativityBox.search
        monkeypatch.setattr(_CooperativityBox, "search",
                            lambda box, *a: calls.append(box) or search(box, *a))
        for t in _MIRRORED_EO:
            _, e = optimize_cooperativities(t, caps, 1.0, 1.0, tau_e=0.5, loss_split=(0.5**0.5,) * 2)
            assert e > 0.0
        _, e = optimize_cooperativities(Topology.swap_sym(MoKind.EO), caps, 1.0, 1.0, tau_e=0.5)
        assert e > 0.0
        assert not calls
        _, e = optimize_cooperativities(Topology.swap_asym(MoKind.IM, MoKind.EO), caps, 1.0, 1.0,
                                        tau_e=0.5)
        assert e > 0.0
        assert not calls
        _, e = optimize_cooperativities(Topology.down(MoKind.EM), caps, 1.0, 1.0, tau_e=0.5)
        assert e > 0.0
        assert not calls

    @pytest.mark.parametrize("t, r, tau_e", [
        (Topology.down(MoKind.EO), 0.0, 0.5),
        (Topology.swap_sym(MoKind.EO), 0.0, 0.5),
        (Topology.swap_sym(MoKind.EO), 1.15, 0.25),
        (Topology.swap_sym(MoKind.EO), 1.15, 0.2),
    ], ids=["eo_down r=0", "eo_swap r=0", "eo_swap t=1/2", "eo_swap t<1/2"])
    def test_no_gain_returns_zero_at_the_corner(self, t, r, tau_e):
        # K <= 0: no squeezing, or a share of at most 1/2 on each measured
        # arm.  The node values fail the condition at mu = 0, so exactly 0.0
        # is returned at the point with every axis at 0; pytest turns any
        # RuntimeWarning into an error
        caps = PRESETS["brubaker2022"]["caps"]
        split = (math.sqrt(tau_e),) * 2
        for n_th in (caps.n_th, 1e-3, 0.0):
            box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
            cs, e = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
            assert e == 0.0, (t.label, r, tau_e, n_th)
            assert cs == box.full((0.0,)), (t.label, r, tau_e, n_th)

    def test_no_gain_is_exactly_zero_past_rounding(self):
        # at t = 1/2 and n_th = 0 the margin is exactly 0 everywhere, and
        # the corner's rounds above 0 on some caps; the node values fail
        # the condition at mu = 0 exactly, so 0.0 is returned, at C_a = 0
        rng = generator(20260808, stream=117)
        t, split = Topology.swap_sym(MoKind.EO), (0.5, 0.5)
        rounded = 0
        for _ in range(60):
            caps = random_caps(rng)
            r = rng.uniform(0.1, 2.5)
            box = _CooperativityBox.of(t, caps, 0.0, r, 0.25, split)
            cs, e = optimize_cooperativities(t, caps, 0.0, r, tau_e=0.25, loss_split=split)
            assert e == 0.0 and cs == box.full((0.0,)), (caps, r)
            rounded += _corner_margin(box) > 0.0
        assert rounded >= 5, rounded

    def test_device_run_past_6_db(self):
        # above 6.02 dB the equal split puts a share below 1/2 on each arm
        cfg = ExperimentConfig(experiment="device-run", points=3, taue_db_max=8.0, jobs=1)
        rows, _ = cmd_device_run(cfg)
        assert rows[-1]["tau_e"] < 0.25
        for db in cfg.squeezing_db:
            assert rows[-1][f"eo_swap_eqsplit_{format(db, 'g')}db"] == 0.0
            assert rows[0][f"eo_swap_eqsplit_{format(db, 'g')}db"] > 0.0


_SYMMETRIC_SWAPS = tuple(Topology.swap_sym(k) for k in MoKind)


def _diagonal_draw(rng, noise, shares):
    """(caps, n_th, r, tau_e, split) for a symmetric swap off a uniform split.

    shares is "one at tau_e", the default (tau_e, 1), or "interior", t_1
    < t_2 < 1.  Efficiencies from 0.85 let an EM swap entangle too.  n_th
    is 0 or log-spread over three decades below min(tau_a d_a, d_b) / 10.
    The asymmetric loss-split tests take the first four and place tau_e
    themselves.
    """
    kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
    d_a, d_b = 10.0 ** rng.uniform(-1.0, 4.0), 10.0 ** rng.uniform(0.5, 3.0)
    tau_a, tau_b = rng.uniform(0.85, 1.0, 2).tolist()
    caps = DeviceCaps(d_a, d_b, tau_a, tau_b, 0.0, PhysicalRates(kappa_a, kappa_b, 1.0))
    r = rng.uniform(0.2, 1.5)
    if shares == "one at tau_e":
        split = (rng.uniform(0.3, 0.95), 1.0)
    else:
        t_1, t_2 = sorted(rng.uniform(0.5, 0.99, 2).tolist())
        split = (t_1, t_2 if t_2 > t_1 else 0.995)
    n_th = 0.0 if noise == "n_th = 0" else min(tau_a * d_a, d_b) * 10.0 ** rng.uniform(-4.0, -1.0)
    return caps, n_th, r, math.prod(split), split


def _free_search(margin, hi, rng) -> float:
    """Best margin over the box [0, hi] with every axis free, by a search of its own.

    2,000 random points, log- or linearly spread on each axis, rank the
    starts; from each of the best 3 a pattern search steps along every
    direction of {-1, 0, 1}^dim, doubling its per-axis step after a gain
    and halving it otherwise, down to 1e-15 of each cap.
    """
    hi = np.array(hi, dtype=float)[:, None]
    u = rng.uniform(size=(len(hi), 2000))
    x = hi * np.where(rng.uniform(size=u.shape) < 0.5, 10.0 ** (-6.0 * u), u)
    x = np.concatenate([x, hi], axis=1)
    m = margin(x)
    dirs = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=len(hi)))).T
    best = -math.inf
    for i in np.argsort(-m, kind="stable")[:3]:
        p, v, step = x[:, i : i + 1], m[i], 0.1 * hi
        while np.any(step > 1e-15 * hi):
            trial = np.clip(p + dirs * step, 0.0, hi)
            mt = margin(trial)
            j = int(np.argmax(mt))
            if mt[j] > v:
                p, v, step = trial[:, j : j + 1], mt[j], np.minimum(2.0 * step, hi)
            else:
                step = 0.5 * step
        best = max(best, float(v))
    return best


class TestSwapDiagonal:
    """A symmetric swap at any loss split is best with both nodes at the
    same cooperativities, and the EO swap's best point depends on the
    split only through the mean share."""

    @pytest.mark.parametrize("shares", ["one at tau_e", "interior"])
    @pytest.mark.parametrize("noise", ["n_th = 0", "n_th > 0"])
    @pytest.mark.parametrize("t", _SYMMETRIC_SWAPS, ids=lambda t: t.label)
    def test_diagonal_reaches_the_free_search(self, t, noise, shares):
        # the same search of the test's own runs on the pinned layout with
        # both nodes free (_margin_fn4 with pin_cb, 2-D; 4-D for EM) and on
        # its diagonal (_margin_fn with pin_cb): the diagonal is never
        # lower.  optimize_cooperativities solves that diagonal node by
        # node, to the same 1e-12
        rng = generator(20260808, stream=120)
        entangled = 0
        for i in range(6):
            caps, n_th, r, tau_e, split = _diagonal_draw(rng, noise, shares)
            box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
            assert box.mirrored
            free = _margin_fn4(t, caps, n_th, r, split, pin_cb=True)
            diagonal = _margin_fn(t, caps, n_th, r, split, pin_cb=True)
            v = _log2_negativity(_free_search(free, box.hi * 2, rng))
            d = _log2_negativity(_free_search(diagonal, box.hi, rng))
            cs, e = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
            config = (i, t.label, caps, n_th, r, split, cs)
            assert d >= v - 1e-12 * max(1.0, abs(v)), config
            assert e >= v - 1e-12 * max(1.0, abs(v)), config
            assert cs[2:] == cs[:2], config
            entangled += e > 0.0
        assert entangled >= 3, entangled

    @pytest.mark.parametrize("shares", ["one at tau_e", "interior"])
    def test_eo_peak_at_unequal_shares_against_a_scan(self, shares):
        # a dense 2-D scan of (C_a1, C_a2), each node at its converter pin,
        # refined 12 times around its best point
        t = Topology.swap_sym(MoKind.EO)
        rng = generator(20260808, stream=121)
        entangled = 0
        for i in range(24):
            noise = "n_th > 0" if i % 4 else "n_th = 0"
            caps, n_th, r, tau_e, split = _diagonal_draw(rng, noise, shares)
            assert _CooperativityBox.of(t, caps, n_th, r, tau_e, split).root is not None
            cs, e = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
            free = _margin_fn4(t, caps, n_th, r, split, pin_cb=True)
            axes = [np.unique(np.concatenate([[0.0], caps.d_a * np.geomspace(1e-9, 1.0, 200),
                                              np.linspace(0.0, caps.d_a, 200)]))] * 2
            best = -math.inf
            for _ in range(12):
                x = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(2, -1)
                m = free(x)
                k = int(np.argmax(m))
                best = max(best, float(m[k]))
                idx = np.unravel_index(k, (len(axes[0]), len(axes[1])))
                axes = [np.linspace(a[max(j - 1, 0)], a[min(j + 1, len(a) - 1)], 41)
                        for a, j in zip(axes, idx)]
            scanned = _log2_negativity(best)
            config = (i, caps, n_th, r, split, cs)
            assert e >= scanned - 1e-12 * max(1.0, scanned), config
            assert (e > 0.0) == (scanned > 0.0), config
            assert cs[1] == min(caps.d_b, 1.0 + cs[0]) and cs[2:] == cs[:2], config
            cfg = NetworkConfig(replace(caps, n_th=n_th), *cs, r=r, tau_e=tau_e, loss_split=split)
            assert e == pytest.approx(mm_log_negativity(t, cfg), abs=1e-12), config
            entangled += e > 0.0
        assert entangled >= 12, entangled


_NON_EM = [t for t in ALL_TOPOLOGIES if MoKind.EM not in t.kinds]


def _node_root_draw(rng, t):
    """(caps, n_th, r, tau_e, split) for a layout without an EM source.

    Rates of 0.1 to 300 and caps of 0.1 to 3e3 put an IO or IM source's
    optimum on each piece of its face: a stability line, the cap, or a
    kink between them.  n_th is 0 in about a third of the draws, else
    log-spread below min(tau_a d_a, d_b); every slot takes a random share.
    """
    rates = PhysicalRates(*(10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist(), 10.0 ** rng.uniform(-1.0, 1.0))
    d_a, d_b = (10.0 ** rng.uniform(-1.0, 3.5, 2)).tolist()
    tau_a, tau_b = rng.uniform(0.6, 1.0, 2).tolist()
    caps = DeviceCaps(d_a, d_b, tau_a, tau_b, 0.0, rates)
    n_th = 0.0 if rng.uniform() < 0.3 else min(tau_a * d_a, d_b) * 10.0 ** rng.uniform(-4.0, -0.5)
    split = tuple(rng.uniform(0.5, 1.0, loss_slot_count(t)).tolist())
    return caps, n_th, rng.uniform(0.0, 1.5), math.prod(split), split


def _face_piece(node, v) -> str:
    """Where v lies on a blue node's face: "end" (a kink or a cap of v), or the line of its piece."""
    if any(abs(v - end[0][node.io]) <= 1e-9 * max(1.0, end[0][node.io]) for end in node.ends):
        return "end"
    for lo, hi, N0, *_ in node.pieces:
        if lo < v < hi:
            # N0 = 4 tau_a tau_b (0, c, s) on the piece u = s v + c
            return {1.0: "first", 0.0: "cap"}.get(N0[2] / node.tab, "second")
    raise AssertionError(v)


class TestNodeRoot:
    """A layout without an EM source is solved node by node: each node's
    best point at mu, and the margin's fixed point in mu."""

    def test_reaches_the_search(self):
        # the search is the test's own (_free_search) over the production
        # margin of the box; the solver reaches it on all nine topologies,
        # and its argmax re-evaluates through the public path.  The draws
        # put IO and IM optima at kinks and inside cap and stability-line
        # pieces, so a dropped candidate shows
        rng = generator(20260808, stream=130)
        pieces, entangled = set(), {"n_th = 0": 0, "n_th > 0": 0}
        for i in range(16 * len(_NON_EM)):
            t = _NON_EM[i % len(_NON_EM)]
            caps, n_th, r, tau_e, split = _node_root_draw(rng, t)
            box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
            cs, e = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
            v = _log2_negativity(_free_search(box.margin, box.hi, rng))
            config = (i, t.label, caps, n_th, r, split, cs)
            assert e >= v - 1e-12 * max(1.0, abs(v)), config
            cfg = NetworkConfig(replace(caps, n_th=n_th), *cs, r=r, tau_e=tau_e, loss_split=split)
            assert abs(e - mm_log_negativity(t, cfg)) <= 1e-12, config
            if e > 0.0:
                entangled["n_th = 0" if n_th == 0.0 else "n_th > 0"] += 1
                root = box.root()
                cs, _ = root.solve()
                for k, node in enumerate((root.first, root.second)):
                    if isinstance(node, _BlueNode):
                        # the red side of node k: C_b of IO, C_a of IM
                        pieces.add(("IO" if node.io else "IM", _face_piece(node, cs[2 * k + node.io])))
        assert min(entangled.values()) >= 20, entangled
        want = {(kind, piece) for kind in ("IO", "IM") for piece in ("end", "cap", "second")}
        assert want <= pieces, pieces

    def test_reaches_the_kink_of_an_im_face(self):
        # the IM source is best where its second stability line meets its
        # cap d_b; the golden polish of the search stopped 2.7e-12 relative
        # short of it, and a pattern search on the diagonal reaches
        # 1.7722625411119048
        rates = PhysicalRates(kappa_a=2.4519795153440604, kappa_b=3.507713828404308, gamma_m=1.0)
        caps = DeviceCaps(114.52744547102647, 22.627470972412777, 0.9379270062129013,
                          0.8574777032577955, 0.0, rates)
        split = (0.9261405407781866, 0.9710487359633644)
        cs, e = optimize_cooperativities(Topology.swap_sym(MoKind.IM), caps, 0.0, 1.344942143206662,
                                         tau_e=math.prod(split), loss_split=split)
        assert e >= 1.7722625411119048 - 1e-12
        assert cs[1] == caps.d_b

    def test_no_entanglement_at_mu_0_returns_zero(self):
        # where the condition fails at mu = 0 no point entangles: the
        # result is exactly 0 at the point with every axis at 0, whatever
        # the corner's margin rounds to
        caps = PRESETS["brubaker2022"]["caps"]
        for t in (Topology.swap_sym(MoKind.IO), Topology.down(MoKind.IM)):
            box = _CooperativityBox.of(t, caps, caps.tau_a * caps.d_a, 0.0)
            root = box.root()
            assert root.argmax(0.0)[1] <= 0.0
            cs, m = root.solve()
            assert cs == box.full([0.0] * len(box.hi)) and m <= 0.0


def _lazy_draw(rng, t, i):
    """(caps, n_th, r, tau_e, split) over the regimes of optimize_cooperativities's mu = 0 test.

    Caps come from random_caps; r is 0 in every fourth draw; tau_e is
    below 1, on the default split (None) or on explicit random shares
    of every slot, 3-slot swaps included.  n_th cycles through 0, within
    1e-6 relative of the n_th at which the condition at mu = 0 turns
    (found by bisection), and up to 100 tau_a d_a.
    """
    kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
    caps = random_caps(rng, PhysicalRates(kappa_a, kappa_b, 1.0))
    r = 0.0 if i % 4 == 0 else rng.uniform(0.05, 1.2)
    tau_e = rng.uniform(0.3, 0.99)
    split = None
    if rng.uniform() < 0.5:
        split = tuple((tau_e ** rng.dirichlet(np.ones(loss_slot_count(t)))).tolist())
        tau_e = math.prod(split)
    regime = i // len(ALL_TOPOLOGIES) % 3
    if regime == 0:
        return caps, 0.0, r, tau_e, split
    if regime == 1:
        lo, hi = 0.0, caps.tau_a * caps.d_a
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            root = _CooperativityBox.of(t, caps, mid, r, tau_e, split).root()
            lo, hi = (mid, hi) if root.argmax(0.0)[1] > 0.0 else (lo, mid)
        return caps, hi * (1.0 + rng.uniform(-1e-6, 1e-6)), r, tau_e, split
    return caps, caps.tau_a * caps.d_a * 10.0 ** rng.uniform(-1.0, 2.0), r, tau_e, split


class TestMarginAfterMu0:
    """optimize_cooperativities tests mu = 0 before it evaluates a margin,
    and evaluates one only for a cell that then ascends, at the 4-tuples
    of its nodes with no margin closure; nothing else moves."""

    def test_device_run_builds_a_margin_only_to_ascend(self, monkeypatch):
        # of a 13-point pass's 182 cells, 82 stop at mu = 0 and 100
        # ascend; none builds a margin closure, which a box builds for
        # every cell
        built, ascents = [], []
        for name in ("_margin_fn", "_margin_fn4"):
            factory = getattr(thresholds, name)
            monkeypatch.setattr(thresholds, name, functools.partial(
                lambda f, *a, **k: built.append(a[0].label) or f(*a, **k), factory))
        ascend = thresholds._ascend
        monkeypatch.setattr(thresholds, "_ascend",
                            lambda *a: ascents.append(1) or ascend(*a))
        rows, _ = cmd_device_run(ExperimentConfig(experiment="device-run", points=13, jobs=1))
        assert len(rows) * (len(experiments.device_columns((3.0, 10.0))) - 2) == 182
        assert built == [] and len(ascents) == 100, (built, len(ascents))

    def test_device_run_counts_at_the_excess_names(self, monkeypatch):
        # every margin evaluation calls thresholds._mm_excess, and that calls
        # network._mo_excess, each looked up in its module at call time (the
        # names the benchmark's tracer patches): a counting wrapper there
        # sees every call of a 13-point pass, as do wrappers on the cells
        # (experiments.optimize_cooperativities) and the ascents
        # (thresholds._ascend).  README's device-run bullets state the counts
        counts = collections.Counter()
        for module, name in ((experiments, "optimize_cooperativities"), (thresholds, "_ascend"),
                             (thresholds, "_mm_excess"), (network, "_mo_excess")):
            monkeypatch.setattr(module, name, functools.partial(
                lambda f, key, *a, **k: counts.update([key]) or f(*a, **k), getattr(module, name), name))
        cmd_device_run(ExperimentConfig(experiment="device-run", points=13, jobs=1))
        cells, ascents = counts["optimize_cooperativities"], counts["_ascend"]
        margins, sources = counts["_mm_excess"], counts["_mo_excess"]
        assert (cells, ascents, margins, sources) == (182, 100, 597, 688), counts
        readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
        for claim in (f"Of the {cells} cells of a 13-point `brubaker2022` run, {ascents} ascend and "
                      f"evaluate {margins} margins in all; the other {cells - ascents} stop",
                      f"The {margins} margins of that run evaluate `_mo_excess` {sources} times"):
            assert claim in readme, claim

    def test_same_as_the_eager_box_on_random_draws(self):
        # every topology, both sides of the test at mu = 0: the value and
        # the argmax equal, in repr, those of the box, whose margin closure
        # and layout map carry the same ascent on the box's own axes
        rng = generator(20261020, stream=140)
        stopped = ascended = three_slot = 0
        for i in range(6 * len(ALL_TOPOLOGIES)):
            t = ALL_TOPOLOGIES[i % len(ALL_TOPOLOGIES)]
            caps, n_th, r, tau_e, split = _lazy_draw(rng, t, i)
            got = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
            box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
            cs, m = _box_solve(box)
            config = (i, t.label, caps, n_th, r, tau_e, split)
            assert repr(got) == repr((cs, _log2_negativity(m))), config
            stopped += cs == box.full([0.0] * len(box.hi)) and m == 0.0
            ascended += m > 0.0
            three_slot += split is not None and len(split) == 3
        assert stopped >= 20 and ascended >= 20 and three_slot >= 3, (stopped, ascended, three_slot)


class TestRootPins:
    """The node-local root pins each node's point itself, and evaluates
    its margin at the 4-tuple; the box's layout map (_layout_coords) and
    margin closure stay the oracles of both, bit for bit."""

    def test_root_solve_is_the_layout_map_at_its_axes(self):
        # _lazy_draw: random caps and rates, r = 0 in every fourth draw,
        # default or explicit splits, 3-slot swaps included, and n_th on
        # both sides of the test at mu = 0.  The 4-tuple of every cell,
        # and of the root's argmax at other mu, is the layout map at its
        # own axes, in repr; the margin of an ascent is the closure's there
        rng = generator(20261020, stream=141)
        seen = dict.fromkeys(("exit", "ascent", "r = 0", "r > 0", "default", "explicit"), 0)
        for i in range(12 * len(ALL_TOPOLOGIES)):
            t = ALL_TOPOLOGIES[i % len(ALL_TOPOLOGIES)]
            caps, n_th, r, tau_e, loss_split = _lazy_draw(rng, t, i)
            box = _CooperativityBox.of(t, caps, n_th, r, tau_e, loss_split)
            rv, split = thresholds._checked_cell(t, n_th, r, tau_e, loss_split)
            cs, m = _NodeRoot.of(t, caps, n_th, rv, split).solve()
            x = _box_point(box, cs)
            config = (i, t.label, caps, n_th, r, tau_e, loss_split, cs)
            assert repr(box.full(x)) == repr(cs), config
            root = box.root()
            if root.argmax(0.0)[1] > 0.0:
                assert m == box.margin(x), config
                seen["ascent"] += 1
            else:
                assert x == [0.0] * len(x) and m == 0.0, config
                seen["exit"] += 1
            for mu in (1e-6, 1e-3, 0.1, max(m, 0.0)):
                point = root.argmax(mu)[0]
                assert repr(box.full(_box_point(box, point))) == repr(point), (config, mu)
            seen["r = 0" if r == 0.0 else "r > 0"] += 1
            seen["default" if loss_split is None else "explicit"] += 1
        assert min(seen.values()) >= 20, seen


def _layout_of(root) -> str:
    """The kind of a root's cell: down, symmetric swap, or a 2- or 3-slot asymmetric swap."""
    if root.t.scheme == "down":
        return "down"
    return "symmetric swap" if root.t.is_symmetric else f"{len(root.split)}-slot swap"


class TestPointsOnlyStep:
    """An ascent step reads only the best 4-tuple at mu: point, which
    skips the nodes' values, is argmax's point in repr, node by node and
    for the root, and a symmetric swap's margin evaluates one source."""

    def test_point_is_the_argmax_point(self):
        # _lazy_draw: random caps, rates, splits (3-slot swaps included) and
        # n_th on both sides of the test at mu = 0; mu at 0, small and at
        # and just below the margin the root reaches
        rng = generator(20261020, stream=171)
        nodes, layouts = collections.Counter(), collections.Counter()
        for i in range(12 * len(ALL_TOPOLOGIES)):
            t = ALL_TOPOLOGIES[i % len(ALL_TOPOLOGIES)]
            caps, n_th, r, tau_e, loss_split = _lazy_draw(rng, t, i)
            rv, split = thresholds._checked_cell(t, n_th, r, tau_e, loss_split)
            root = _NodeRoot.of(t, caps, n_th, rv, split)
            m = max(root.solve()[1], 0.0)
            for mu in (0.0, 1e-9, 1e-3, m * (1.0 - 1e-9), m):
                config = (i, t.label, caps, n_th, r, split, mu)
                for node in (root.first, root.second):
                    assert repr(node.point(mu)) == repr(node.argmax(mu)[0]), config
                point = root.point(mu)
                assert repr(point) == repr(root.argmax(mu)[0]), config
                if root.second is root.first:  # node 1's very objects: _mm_excess reuses its source
                    assert point[2] is point[0] and point[3] is point[1], config
            nodes.update(type(node).__name__ for node in (root.first, root.second))
            layouts[_layout_of(root)] += 1
        assert len(nodes) == 3 and min(nodes.values()) >= 20, nodes
        assert len(layouts) == 4 and min(layouts.values()) >= 10, layouts

    def test_one_source_per_symmetric_margin(self, monkeypatch):
        # every margin evaluation of a solve is one _mm_excess call, which
        # evaluates one source for a downconversion or a symmetric swap and
        # two for an asymmetric swap, each counted at its module name
        calls = collections.Counter()
        mm, mo = thresholds._mm_excess, network._mo_excess
        monkeypatch.setattr(thresholds, "_mm_excess", lambda *a: calls.update(["mm"]) or mm(*a))
        monkeypatch.setattr(network, "_mo_excess", lambda *a: calls.update(["mo"]) or mo(*a))
        rng = generator(20261020, stream=172)
        ascended = collections.Counter()
        for i in range(12 * len(ALL_TOPOLOGIES)):
            t = ALL_TOPOLOGIES[i % len(ALL_TOPOLOGIES)]
            caps, n_th, r, tau_e, loss_split = _lazy_draw(rng, t, i)
            rv, split = thresholds._checked_cell(t, n_th, r, tau_e, loss_split)
            calls.clear()
            root = _NodeRoot.of(t, caps, n_th, rv, split)
            root.solve()
            per_margin = 1 if t.is_symmetric else 2
            assert calls["mo"] == per_margin * calls["mm"], (i, t.label, calls)
            if calls["mm"]:
                ascended[_layout_of(root)] += 1
        assert len(ascended) == 4 and min(ascended.values()) >= 3, ascended


def _generic_argmax(node, mu):
    """_BlueNode.argmax written with max(ends, key=...), zip and generators."""
    best = max(node.ends, key=lambda st: node.h(st, mu))
    value = node.h(best, mu)
    for lo, hi, N0, N1, D0, D1 in node.pieces:
        n0, n1, n2 = (p + mu * q for p, q in zip(N0, N1))
        d0, d1, d2 = (p + mu * q for p, q in zip(D0, D1))
        v = _falling_root(n2 * d1 - n1 * d2, 2.0 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1)
        if v is not None and lo < v < hi:
            st = node.state(v)
            if node.h(st, mu) > value:
                best, value = st, node.h(st, mu)
    return best[0], value


def _winner(node, mu) -> str:
    """Where node's best point at mu lies: "end" (a kink or a cap of its face) or "root"."""
    point = node.argmax(mu)[0]
    return "end" if any(point == end[0] for end in node.ends) else "root"


class TestBlueNodeArgmax:
    """_BlueNode.argmax, unrolled, keeps every bit of the generic form."""

    def test_matches_the_generic_form(self):
        # mu on a log grid, and on both sides of each mu where the best
        # point moves between a kink of the face and the root of a piece,
        # found by bisection; there the two candidates almost tie
        rng = generator(20260808, stream=131)
        winners, switches = set(), 0
        for i in range(24):
            kind = _BLUE_KINDS[i % 2]
            caps, n_th, *_ = _node_root_draw(rng, Topology.swap_sym(kind))
            node = _BlueNode(kind, caps, n_th)
            scale = max(abs(node.argmax(0.0)[1]), 1e-3)
            grid = [0.0] + (scale * np.geomspace(1e-6, 1e3, 60)).tolist()
            mus = list(grid)
            for lo, hi in zip(grid, grid[1:]):
                if _winner(node, lo) == _winner(node, hi):
                    continue
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):
                        break
                    lo, hi = (mid, hi) if _winner(node, mid) == _winner(node, lo) else (lo, mid)
                mus += [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
                switches += 1
            for mu in mus:
                got, want = node.argmax(mu), _generic_argmax(node, mu)
                assert repr(got) == repr(want), (i, kind, caps, n_th, mu)
                winners.add(_winner(node, mu))
        assert winners == {"end", "root"} and switches >= 10, (winners, switches)

    def test_ties_keep_the_first_maximum(self):
        # copies of the best end, with other points, before and after
        # the others: both forms return the first copy
        rng = generator(20260808, stream=132)
        for i in range(16):
            kind = _BLUE_KINDS[i % 2]
            caps, n_th, *_ = _node_root_draw(rng, Topology.swap_sym(kind))
            node = _BlueNode(kind, caps, n_th)
            for mu in (0.0, 1e-3, 1.0):
                best = max(node.ends, key=lambda st: node.h(st, mu))
                node.ends = (((-1.0, -1.0), *best[1:]), *node.ends, ((-2.0, -2.0), *best[1:]))
                got, want = node.argmax(mu), _generic_argmax(node, mu)
                assert repr(got) == repr(want), (i, kind, caps, n_th, mu)
                assert got[0] == (-1.0, -1.0) or _winner(node, mu) == "root"


def _caps_cast(caps, cast):
    """caps with cast applied to every field, its rates' included."""
    r = caps.rates
    return DeviceCaps(*map(cast, (caps.d_a, caps.d_b, caps.tau_a, caps.tau_b, caps.n_th)),
                      PhysicalRates(*map(cast, (r.kappa_a, r.kappa_b, r.gamma_m))))


def _integral(x):
    return int(x) if x == int(x) else x


def _fresh(caps):
    """caps built anew, every field a new number object of the same type and value."""
    return _caps_cast(caps, lambda x: type(x)(str(x)))


class TestFactoryCaches:
    """A blue node, which depends only on its kind, the caps and n_th, is
    kept on the caps object it was built from; a hit is the node a miss
    builds from the same objects, in repr."""

    caps = PRESETS["brubaker2022"]["caps"]
    # equal under ==, but not in type or in the sign of a zero
    variants = [caps, _caps_cast(caps, np.float64), _caps_cast(caps, _integral)]
    zero = DeviceCaps(5.0, 0.0, 0.9, 0.8, 0.0)
    zeros = [zero, replace(zero, d_b=-0.0), replace(zero, d_b=0), replace(zero, d_b=np.float64(0.0))]

    @staticmethod
    def probe(node):
        return repr((vars(node).keys(), node.ends, node.pieces,
                     [node.argmax(mu) for mu in (0.0, 0.1, 10.0)], _BlueNode.h(node.state(0.5), 0.1)))

    def test_blue_node(self):
        for kind in _BLUE_KINDS:
            capses = [replace(caps) for caps in self.variants + self.zeros]
            built = [_blue_node(kind, caps, caps.n_th) for caps in capses]
            # caps equal under == are still other objects, each with its own node
            assert len(set(map(id, built))) == len(capses)
            for caps, node in zip(capses, built):
                assert _blue_node(kind, caps, caps.n_th) is node
                assert caps._nodes == {kind: node}
                assert self.probe(node) == self.probe(_BlueNode(kind, caps, caps.n_th)), caps

    def test_a_new_n_th_object_replaces_the_node(self):
        for base in self.variants + self.zeros:
            caps = replace(base)
            for kind in _BLUE_KINDS:
                node = None
                for n_th in (caps.n_th, float(str(caps.n_th)), 1.0, 1, caps.n_th):
                    old, node = node, _blue_node(kind, caps, n_th)
                    assert node is not old and node.n_th is n_th
                    assert _blue_node(kind, caps, n_th) is node
                    assert caps._nodes[kind] is node
                    assert self.probe(node) == self.probe(_BlueNode(kind, caps, n_th)), (caps, n_th)
            # at most one node per kind
            assert sorted(caps._nodes, key=_BLUE_KINDS.index) == list(_BLUE_KINDS)

    def test_argmax_leaves_a_cached_node_unchanged(self):
        for kind in _BLUE_KINDS:
            node = _blue_node(kind, self.caps, self.caps.n_th)
            before = repr(vars(node))
            for mu in [0.0] + np.geomspace(1e-6, 1e3, 40).tolist():
                point, _ = node.argmax(mu)
                _BlueNode.h(node.state(point[1] if node.io else point[0]), mu)
            assert repr(vars(node)) == before
            assert _blue_node(kind, self.caps, self.caps.n_th) is node

    def test_device_run_builds_each_blue_node_once(self, monkeypatch):
        # without the memo every IO or IM node of every cell built one, 117 in all
        built = []
        init = _BlueNode.__init__

        def counted(node, kind, *args):
            built.append(kind.name)
            init(node, kind, *args)

        monkeypatch.setattr(_BlueNode, "__init__", counted)
        cmd_device_run(ExperimentConfig(experiment="device-run", points=13, jobs=1, caps=replace(self.caps)))
        assert sorted(built) == ["IM", "IO"]

    def test_caps_pickle_without_their_nodes(self):
        # a pool worker's copy of n_th is another float object, so the nodes
        # kept on the caps could not hit there: a pool task ships the fields alone
        caps = replace(self.caps)
        cmd_device_run(ExperimentConfig(experiment="device-run", points=13, jobs=1, caps=caps))
        assert sorted(caps._nodes, key=_BLUE_KINDS.index) == list(_BLUE_KINDS)
        assert len(pickle.dumps(caps)) <= len(pickle.dumps(brubaker2022_caps()))
        back = pickle.loads(pickle.dumps(caps))
        assert back == caps and "_nodes" not in vars(back)

    def test_device_run_same_with_cold_caches(self, monkeypatch):
        # float caps, then caps equal under == with integer fields, then the
        # float caps again, in one process: each run reads as a run on
        # freshly built caps whose every solve builds its own nodes
        runs, coops = [], []
        for caps in (self.caps, _caps_cast(self.caps, _integral), self.caps):
            report = cmd_ebit_rate(ExperimentConfig(experiment="ebit-rate", caps=caps))
            device = ExperimentConfig(experiment="device-run", points=13, jobs=1, caps=caps)
            runs.append((caps, repr(report), repr(cmd_device_run(device)[0])))
            coops.append(list(map(type, report["cooperativities"])))
        assert coops == [[float] * 4, [float, int, float, int], [float] * 4]

        def cold(t, caps, *args, **kwargs):
            return optimize_cooperativities(t, _fresh(caps), *args, **kwargs)

        monkeypatch.setattr(experiments, "optimize_cooperativities", cold)
        for caps, rate, rows in runs:
            fresh = _fresh(caps)
            assert repr(cmd_ebit_rate(ExperimentConfig(experiment="ebit-rate", caps=fresh))) == rate
            device = ExperimentConfig(experiment="device-run", points=13, jobs=1, caps=fresh)
            assert repr(cmd_device_run(device)[0]) == rows
            assert not fresh._nodes


_BLUE_KINDS = (MoKind.IO, MoKind.IM)
_BLUE_TOPOLOGIES = [t for t in ALL_TOPOLOGIES if set(t.kinds) & set(_BLUE_KINDS)]


def _blue_nodes(t):
    """(blue index, red index) of each IO or IM source of t, in (c_a1, c_b1, c_a2, c_b2)."""
    sources = t.kinds[:1] if t.scheme == "down" else t.kinds
    return [
        (2 * j, 2 * j + 1) if kind is MoKind.IO else (2 * j + 1, 2 * j)
        for j, kind in enumerate(sources) if kind in _BLUE_KINDS
    ]


class TestBluePin:
    """An IO or IM source is best with its blue-pumped side at its stable
    bound, the largest stable float within its cap."""

    def test_margin_is_highest_at_the_face(self):
        # along the blue axis of a source, with every other cooperativity
        # fixed, the pinned point's margin is at least every entangled
        # margin of the line.  1e-11 relative allows for rounding: on
        # margins near 1e-12, a 60-digit evaluation of each gap that the
        # float margins showed in these draws put the pinned point higher
        rng = generator(20260808, stream=114)
        u = np.unique(np.concatenate([
            np.geomspace(1e-6, 1.0, 40), 1.0 - np.geomspace(1e-15, 0.5, 30), np.linspace(0, 1, 31)
        ]))
        draws = entangled = 0
        for i in range(36 * len(_BLUE_TOPOLOGIES)):
            t = _BLUE_TOPOLOGIES[i % len(_BLUE_TOPOLOGIES)]
            caps, n_th, r, tau_e, split = _shortcut_draw(rng, t)
            n_th *= rng.uniform() ** 2
            free = _margin_fn4(t, caps, n_th, r, split)
            for blue, red in _blue_nodes(t):
                # each other cooperativity log-spread, uniform or at its cap
                scale = np.choose(rng.integers(3, size=4),
                                  [10.0 ** rng.uniform(-4.0, 0.0, 4), rng.uniform(size=4), 1.0])
                x = np.array([caps.d_a, caps.d_b] * 2) * scale
                face = _stable_bound(caps, x[red], blue % 2 == 0)
                pinned = x.copy()
                pinned[blue] = face
                line = np.repeat(x[:, None], len(u), axis=1)
                line[blue] = face * u
                m_pin, m = free(pinned.tolist()), free(line)
                ent = m > 0.0
                config = (i, t.label, caps, n_th, r, split, x.tolist())
                assert np.all(m_pin >= m[ent] * (1.0 - 1e-11)), config
                entangled += bool(np.any(ent))
            draws += 1
        assert draws >= 300 and entangled >= 80, (draws, entangled)

    def test_pinned_coordinates_are_bit_equal_on_floats_and_arrays(self):
        # box.full puts each blue side at _stable_bound of its red side, with
        # the same bits on floats and arrays, and box.margin is the free 4-D
        # margin there, bit for bit.  Rates of 0.1 to 300 let either
        # stability criterion bind, and caps of 1e-2 to 1e4 the cap
        rng = generator(20260808, stream=115)
        for i in range(8 * len(_BLUE_TOPOLOGIES)):
            t = _BLUE_TOPOLOGIES[i % len(_BLUE_TOPOLOGIES)]
            kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
            caps = random_caps(rng, PhysicalRates(kappa_a, kappa_b, 1.0))
            n_th = 0.1 * caps.tau_a * caps.d_a
            r, tau_e = rng.uniform(0.0, 1.2), rng.uniform(0.5, 1.0)
            n = loss_slot_count(t)
            for split in (None, (tau_e ** (1.0 / n),) * n):
                box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
                free = _margin_fn4(t, caps, n_th, r, split or default_loss_split(t, tau_e))
                x = np.array(box.hi)[:, None] * rng.uniform(size=(len(box.hi), 32))
                x[:, 0], x[:, 1] = 0.0, box.hi  # the red sides at 0 and at their caps
                many, many_cs = box.margin(x), box.full(x)
                for k in range(x.shape[1]):
                    point = x[:, k].tolist()
                    cs = box.full(point)
                    assert cs == tuple(float(v[k]) for v in many_cs), (i, t.label, point)
                    assert box.margin(point) == many[k] == free(cs), (i, t.label, point)
                    for blue, red in _blue_nodes(t):
                        assert cs[blue] == _stable_bound(caps, cs[red], blue % 2 == 0)

    def test_face_is_strictly_stable_for_any_rates(self):
        # why a pinned layout needs no stability check (_margin_closure): the
        # bound is at least 1 - STRICT_MARGIN > 0, so the face, the float
        # below it clipped to [0, cap], lies strictly below it.  Rates over
        # 16 decades let either criterion bind; red sides at 0, at the cap
        # and log-spread up to C_MAX
        rng = generator(20261019, stream=116)
        for i in range(200):
            kappa_a, kappa_b, gamma_m = (10.0 ** rng.uniform(-8.0, 8.0, 3)).tolist()
            d_a, d_b = (10.0 ** rng.uniform(-3.0, 12.0, 2)).tolist()
            caps = DeviceCaps(d_a, d_b, 0.9, 0.8, 0.0, PhysicalRates(kappa_a, kappa_b, gamma_m))
            for optical_blue in (True, False):
                face = functools.partial(_stable_bound, caps, optical_blue=optical_blue)
                bound = functools.partial(_blue_bound, rates=caps.rates, optical_blue=optical_blue)
                cap_red = d_b if optical_blue else d_a
                reds = np.concatenate([[0.0, cap_red], np.geomspace(1e-8, C_MAX, 41)])
                assert np.all(face(reds) < bound(reds)), (i, caps, optical_blue)
                assert np.all(bound(reds) >= 1.0 - STRICT_MARGIN), (i, caps, optical_blue)
                for x in reds.tolist():
                    assert face(x) < bound(x) and bound(x) >= 1.0 - STRICT_MARGIN, (i, caps, x)

    def test_pinned_layouts_are_finite_on_the_seed_grid(self):
        # the unchecked pinned layouts of every topology never meet an
        # unstable point; _margin_fn's mirrored layout serves only
        # symmetric topologies (_CooperativityBox)
        rng = generator(20261019, stream=117)
        for i in range(6):
            rates = PhysicalRates(*(10.0 ** rng.uniform(-8.0, 8.0, 3)).tolist())
            caps = PRESETS["brubaker2022"]["caps"] if i == 0 else random_caps(rng, rates)
            n_th, r = 0.1 * caps.tau_a * caps.d_a * rng.uniform(), rng.uniform(0.0, 1.2)
            for t in ALL_TOPOLOGIES:
                split = default_loss_split(t, rng.uniform(0.5, 1.0))
                nodes = thresholds._converter_nodes(t)
                for factory, axes in ((_margin_fn, nodes[:1]), (_margin_fn4, nodes)):
                    dim = sum(len(thresholds._NODE_AXES[k]) for k in axes)
                    if factory is _margin_fn and not t.is_symmetric or dim > 3:
                        continue  # EM-swap's 4-D layout, with no blue node, has no seed grid
                    hi = np.array([(caps.d_a, caps.d_b)[j] for k in axes
                                   for j in thresholds._NODE_AXES[k]])
                    m = factory(t, caps, n_th, r, split, pin_cb=True)(
                        thresholds._unit_seed_grid(dim) * hi[:, None])
                    assert np.all(np.isfinite(m)), (i, t.label, factory.__name__, caps)

    def test_mends_a_search_miss_next_to_the_face(self):
        # the free 3-D search ended at the downconverter's cap with 2.08e-4
        # e-bits, even at the default budget; the best point has the IO
        # source on its face and the downconverter at C_a near 6.5
        rates = PhysicalRates(3950.350335296853, 79.6563050716506, 2.8571064288264614)
        caps = DeviceCaps(61438.952496569626, 4.5081734154912665, 0.9440001136948692,
                          0.31834032064944484, 0.21621995208953143, rates)
        t, tau_e = Topology.down(MoKind.IO), 0.8378070398404089
        _, e = optimize_cooperativities(t, caps, caps.n_th, tau_e=tau_e)
        # a dense scan of the face: the source's C_a at its largest stable
        # value, the downconverter's C_b at its converter pin
        scan = 0.0
        for c_b in np.linspace(0.0, caps.d_b, 61).tolist():
            c_a = max_stable_ca(caps, c_b)
            for c_a2 in np.geomspace(1e-2, caps.d_a, 141).tolist():
                cfg = NetworkConfig(caps, c_a, c_b, c_a2, min(caps.d_b, 1.0 + c_a2), tau_e=tau_e)
                scan = max(scan, mm_log_negativity(t, cfg))
        assert scan > 0.328
        assert e >= scan - 1e-9


class TestOptimizeLossSplit:
    def test_down_eo_equal_split_with_grid_oracle(self, rng):
        caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 1.0)
        t = Topology.down(MoKind.EO)
        tau_e = 0.6
        split, e_eq = optimize_loss_split(t, caps, caps.n_th, 0.8, tau_e)
        assert split == pytest.approx((math.sqrt(tau_e), math.sqrt(tau_e)))
        cs = (caps.d_a, caps.d_b, caps.d_a, caps.d_b)
        for t1 in np.linspace(tau_e, 1.0, 101):
            cfg = NetworkConfig(caps, *cs, r=0.8, tau_e=tau_e, loss_split=(t1, tau_e / t1))
            e = mm_log_negativity(t, cfg)
            cfg_eq = NetworkConfig(
                caps, *cs, r=0.8, tau_e=tau_e,
                loss_split=(math.sqrt(tau_e), math.sqrt(tau_e)),
            )
            assert mm_log_negativity(t, cfg_eq) >= e - 1e-10

    def test_asym_three_slot_search_finds_downconversion_slot(self):
        # at the realistic preset the free search lands on the known
        # optimum: all external loss on the EO pre-downconversion mode
        from gausslink import SqueezeParam, brubaker2022_caps

        caps = brubaker2022_caps()
        t = Topology.swap_asym(MoKind.IM, MoKind.EO)
        r = SqueezeParam.from_db(10.0)
        split, e = optimize_loss_split(t, caps, caps.n_th, r, tau_e=0.7)
        _, e_default = optimize_cooperativities(
            t, caps, caps.n_th, r, tau_e=0.7, loss_split=(1.0, 1.0, 0.7)
        )
        assert e >= e_default - 1e-9
        assert split[2] == pytest.approx(0.7, abs=1e-6)

    def test_asym_two_slot_search_never_below_endpoints(self):
        caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 0.2)
        t = Topology.swap_asym(MoKind.IM, MoKind.EM)
        tau_e = 0.6
        split, e = optimize_loss_split(t, caps, caps.n_th, 0.8, tau_e)
        assert len(split) == 2
        assert math.prod(split) == pytest.approx(tau_e, rel=1e-12)
        for end in ((tau_e, 1.0), (1.0, tau_e)):
            _, e_end = optimize_cooperativities(t, caps, caps.n_th, 0.8, tau_e=tau_e, loss_split=end)
            assert e >= e_end
        assert e > 0.0

    def test_optimized_asym_swap_never_beats_best_symmetric(self):
        # optimizer-level restatement of the swapping theorem (no
        # external loss): asymmetric pairs cannot beat the better of the
        # two symmetric variants
        from gausslink import SqueezeParam, brubaker2022_caps

        caps = brubaker2022_caps()
        r = SqueezeParam.from_db(10.0)
        for k1, k2 in ((MoKind.IM, MoKind.EO), (MoKind.EO, MoKind.EM)):
            _, e12 = optimize_cooperativities(Topology.swap_asym(k1, k2), caps, caps.n_th, r)
            _, e11 = optimize_cooperativities(Topology.swap_sym(k1), caps, caps.n_th, r)
            _, e22 = optimize_cooperativities(Topology.swap_sym(k2), caps, caps.n_th, r)
            assert e12 <= max(e11, e22) + 1e-9

    @pytest.mark.parametrize("kind", [MoKind.EO, MoKind.IM], ids=lambda k: k.name)
    def test_symmetric_swap_split_beats_the_golden_search(self, kind):
        # a symmetric swap's best margin rises with t_1 + t_2, which at t_1
        # t_2 = tau_e is largest at (tau_e, 1): neither the other end nor a
        # golden-section search over t_1 between them finds anything better
        t = Topology.swap_sym(kind)
        rng = generator(20260808, stream=122)
        for i in range(4):
            caps, n_th, r, tau_e, _ = _diagonal_draw(rng, "n_th > 0", "one at tau_e")
            split, e = optimize_loss_split(t, caps, n_th, r, tau_e)
            assert split == (tau_e, 1.0)

            def e_at(s):
                return optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=s)[1]

            v = max(e_at((1.0, tau_e)), golden_max_1d(lambda t1: e_at((t1, tau_e / t1)),
                                                       tau_e, 1.0, iters=24)[1])
            assert e >= v - 1e-12 * max(1.0, abs(v)), (i, caps, n_th, r, tau_e)
            assert e > 0.0 or v == 0.0

    def test_swap_extremal_split_with_grid_oracle(self):
        caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 1.0)
        t = Topology.swap_sym(MoKind.IM)
        tau_e = 0.6
        split, e_ex = optimize_loss_split(t, caps, caps.n_th, 0.0, tau_e)
        assert sorted(split) == pytest.approx([tau_e, 1.0])
        cs = (caps.d_a, caps.d_b, caps.d_a, caps.d_b)
        cfg_ex = NetworkConfig(caps, *cs, tau_e=tau_e, loss_split=(tau_e, 1.0))
        e_ref = mm_log_negativity(t, cfg_ex)
        for t1 in np.linspace(tau_e, 1.0, 101):
            cfg = NetworkConfig(caps, *cs, tau_e=tau_e, loss_split=(t1, tau_e / t1))
            assert e_ref >= mm_log_negativity(t, cfg) - 1e-10

    @pytest.mark.parametrize("t", ALL_TOPOLOGIES, ids=lambda t: t.label)
    def test_returns_python_floats_for_a_numpy_tau_e(self, t):
        # a numpy tau_e (a sweep's) used to come back as a numpy share
        from gausslink import brubaker2022_caps

        caps = brubaker2022_caps()
        split, e = optimize_loss_split(t, caps, caps.n_th, 0.5, np.float64(0.5))
        assert all(type(share) is float for share in split), split
        assert type(e) is float


def _stable_node(rng, kind, caps):
    """A random stable (C_a, C_b) of a source of this kind, each log-spread below its cap."""
    c_a = caps.d_a * 10.0 ** rng.uniform(-2.0, 0.0)
    c_b = caps.d_b * 10.0 ** rng.uniform(-2.0, 0.0)
    if kind is MoKind.IO:
        c_a = rng.uniform(0.5, 1.0) * _stable_bound(caps, c_b, True)
    elif kind is MoKind.IM:
        c_b = rng.uniform(0.5, 1.0) * _stable_bound(caps, c_a, False)
    return c_a, c_b


def _split_position(split) -> str:
    """Where an asymmetric swap's best split lies: an end, or inside the 3-slot edge."""
    if len(split) == 2:
        return "(tau_e, 1)" if split[1] == 1.0 else "(1, tau_e)"
    if split[2] == 1.0:
        return "(tau_e, 1, 1)"
    return "(1, 1, tau_e)" if split[0] == 1.0 else "(tau_e / t_3, 1, t_3)"


#: An EO+IO draw (caps, n_th, r, tau_e) whose best split is (tau_e, 1, 1),
#: all the loss on the EO node's measured arm, which seeded draws seldom give.
_FAR_END_DRAW = (
    DeviceCaps(0.30737504114315795, 19.968395650379325, 0.9814983811795761,
               0.9650966303958368, 0.0, PhysicalRates(4.15568086609806, 1.480294792691675, 1.0)),
    0.00256326505747115,
    1.7375141035536912,
    0.8478610623822502,
)


class TestAsymmetricLossSplit:
    @pytest.mark.parametrize("t", ASYMMETRIC_SWAP_TOPOLOGIES, ids=lambda t: t.label)
    def test_no_split_beats_the_better_end_at_fixed_cooperativities(self, t):
        # the proof in optimize_loss_split, with nothing searched: at fixed
        # cooperativities, and for a 3-slot swap at a fixed t_3, no split
        # with t_1 t_2 = q beats the better of (q, 1) and (1, q)
        rng = generator(20260808, stream=123)
        entangled = 0
        for i in range(16):
            caps, n_th, r, tau_e, _ = _diagonal_draw(rng, "n_th > 0" if i % 2 else "n_th = 0",
                                                     "one at tau_e")
            caps = replace(caps, n_th=n_th)
            cs = _stable_node(rng, t.kinds[0], caps) + _stable_node(rng, t.kinds[1], caps)
            tails = [()] if loss_slot_count(t) == 2 else [(tau_e**f,) for f in (0.0, 1 / 3, 2 / 3)]
            for tail in tails:
                q = tau_e / math.prod(tail)
                e = [
                    mm_log_negativity(t, NetworkConfig(
                        caps, *cs, r=r, tau_e=tau_e, loss_split=(t_1, q / t_1) + tail))
                    for t_1 in np.linspace(q, 1.0, 101).tolist()
                ]
                end = max(e[0], e[-1])
                assert max(e) <= end + 1e-12, (i, caps, cs, r, tau_e, tail)
                entangled += end > 0.0
        assert entangled >= 4, entangled

    @pytest.mark.parametrize("t", ASYMMETRIC_SWAP_TOPOLOGIES[:3], ids=lambda t: t.label)
    def test_the_edge_not_searched_never_beats_its_end(self, t):
        # the proof in optimize_loss_split: at fixed cooperativities no split
        # (1, tau_e / t_3, t_3) beats (1, 1, tau_e), however large t_3
        assert loss_slot_count(t) == 3
        rng = generator(20260808, stream=124)
        entangled = 0
        for i in range(16):
            caps, n_th, r, tau_e, _ = _diagonal_draw(rng, "n_th > 0" if i % 2 else "n_th = 0",
                                                     "one at tau_e")
            caps = replace(caps, n_th=n_th)
            cs = _stable_node(rng, t.kinds[0], caps) + _stable_node(rng, t.kinds[1], caps)
            e = [
                mm_log_negativity(t, NetworkConfig(
                    caps, *cs, r=r, tau_e=tau_e, loss_split=(1.0, tau_e / t_3, t_3)))
                for t_3 in np.linspace(tau_e, 1.0, 101).tolist()
            ]
            assert max(e) <= e[0] + 1e-12, (i, caps, cs, r, tau_e)
            entangled += e[0] > 0.0
        assert entangled >= 4, entangled

    def test_reaches_a_scan_of_every_split(self):
        # a coarse scan of the feasible (t_1, t_2) square, t_3 = tau_e / (t_1
        # t_2), each point a full cooperativity optimization.  The draws put
        # the best split at each end of the 2-slot segment and at each end
        # and inside the 3-slot edge, so a search that skips one falls short
        rng = generator(20260808, stream=125)
        draws = [(t, *_diagonal_draw(rng, noise, "one at tau_e")[:4])
                 for t in ASYMMETRIC_SWAP_TOPOLOGIES for noise in ("n_th = 0", "n_th > 0")]
        draws.append((Topology.swap_asym(MoKind.EO, MoKind.IO), *_FAR_END_DRAW))
        found = set()
        for t, caps, n_th, r, tau_e in draws:
            split, e = optimize_loss_split(t, caps, n_th, r, tau_e)
            grid = np.linspace(tau_e, 1.0, 5).tolist()
            if len(split) == 2:
                scan = [(t_1, tau_e / t_1) for t_1 in grid]
            else:
                scan = [(t_1, t_2, tau_e / (t_1 * t_2)) for t_1 in grid for t_2 in grid
                        if t_1 * t_2 >= tau_e]
            v = max(
                optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=s)[1]
                for s in scan
            )
            assert e >= v - 1e-12 * max(1.0, abs(v)), (t.label, caps, n_th, r, tau_e, split)
            if e > 0.0:
                found.add(_split_position(split))
        assert len(found) == 5, found


#: An EO+IO draw (caps, r, tau_e) whose 3-slot edge entangles only on a
#: window of t_3 around 0.13: a golden-section search over t_3 put both of
#: its first probes (near 0.42 and 0.64) on the separable plateau and
#: returned 0, as did both ends of the edge.
_NARROW_WINDOW_DRAW = (
    DeviceCaps(0.18651040736752453, 0.7986825747985009, 0.9269807816636275, 0.744742616687756,
               0.005364901969811258,
               PhysicalRates(kappa_a=9.164392666173583, kappa_b=0.2615355241856583, gamma_m=1.0)),
    0.30822023464518905,
    0.05803962180491662,
)

_THREE_SLOT = [t for t in ASYMMETRIC_SWAP_TOPOLOGIES if loss_slot_count(t) == 3]


def _edge_e(t, caps, n_th, r, tau_e, t_3) -> float:
    """The optimized negativity at the split (tau_e / t_3, 1, t_3) of the edge."""
    split = (tau_e / t_3, 1.0, t_3)
    return optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)[1]


def _edge_grid(t, caps, n_th, r, tau_e, k=97) -> float:
    """The best negativity on a k-point geometric grid of t_3 over [tau_e, 1]."""
    return max(_edge_e(t, caps, n_th, r, tau_e, t_3) for t_3 in np.geomspace(tau_e, 1.0, k).tolist())


def _edge_golden(t, caps, n_th, r, tau_e) -> float:
    """The best of the edge's two ends and a 24-step golden-section search over t_3 along it."""
    e_at = functools.partial(_edge_e, t, caps, n_th, r, tau_e)
    return max(e_at(tau_e), e_at(1.0), golden_max_1d(e_at, tau_e, 1.0, iters=24)[1])


def _edge_draw(rng, t):
    """(caps, n_th, r, tau_e) just inside the n_th at which a 25-point t_3 grid stops entangling.

    tau_e runs from 0.03 to 0.9, so that the edge is long, and n_th sits
    1e-6 to 1e-1 relative below that grid's threshold, found by
    bisection, where the window of t_3 that entangles may be narrow.
    A draw that does not entangle at n_th = 0 is returned at n_th = 0.
    """
    kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
    caps = random_caps(rng, PhysicalRates(kappa_a, kappa_b, 1.0))
    r, tau_e = rng.uniform(0.1, 1.5), 10.0 ** rng.uniform(-1.5, -0.05)
    lo, hi = 0.0, caps.tau_a * caps.d_a
    if _edge_grid(t, caps, 0.0, r, tau_e, 25) > 0.0:
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _edge_grid(t, caps, mid, r, tau_e, 25) > 0.0 else (lo, mid)
    return caps, lo * (1.0 - 10.0 ** rng.uniform(-6.0, -1.0)), r, tau_e


class TestThreeSlotEdge:
    """A 3-slot asymmetric swap is best on the edge (tau_e / t_3, 1, t_3),
    at the one peak of its EO term in t_3, which optimize_loss_split
    reaches by an ascent without a search."""

    def test_reaches_a_narrow_window(self):
        caps, r, tau_e = _NARROW_WINDOW_DRAW
        t = Topology.swap_asym(MoKind.EO, MoKind.IO)
        inside = (0.4359329208473224, 1.0, 0.13313888222092762)
        cs, e_inside = optimize_cooperativities(t, caps, caps.n_th, r, tau_e=tau_e, loss_split=inside)
        cfg = NetworkConfig(caps, *cs, r=r, tau_e=tau_e, loss_split=inside)
        assert mm_log_negativity(t, cfg) == e_inside == pytest.approx(4.5387e-06, rel=1e-4)
        # the golden-section search and both ends see only the plateau
        assert _edge_golden(t, caps, caps.n_th, r, tau_e) == 0.0
        split, e = optimize_loss_split(t, caps, caps.n_th, r, tau_e)
        assert e > 4.5e-06 and e >= e_inside
        assert split[1] == 1.0 and tau_e < split[2] < 1.0
        assert all(type(share) is float for share in split)
        assert split[0] * split[2] == pytest.approx(tau_e, rel=1e-15)
        assert e == optimize_cooperativities(t, caps, caps.n_th, r, tau_e=tau_e, loss_split=split)[1]

    @pytest.mark.parametrize("t", _THREE_SLOT, ids=lambda t: t.label)
    def test_reaches_the_grid_and_the_golden_search_near_threshold(self, t):
        # the value is never below a 97-point geometric grid of t_3 nor the
        # golden-section search along the edge, each to 1e-12 relative, on
        # draws just inside the threshold of the edge, where its window
        # may be narrow.  With an IO or IM partner the draws put the best
        # t_3 inside the edge, and the golden search falls short on some
        rng = generator(20260808, stream=126)
        where, short = set(), 0
        for i in range(10):
            caps, n_th, r, tau_e = _edge_draw(rng, t)
            split, e = optimize_loss_split(t, caps, n_th, r, tau_e)
            grid, golden = _edge_grid(t, caps, n_th, r, tau_e), _edge_golden(t, caps, n_th, r, tau_e)
            config = (i, t.label, caps, n_th, r, tau_e, split, e, grid, golden)
            assert e >= grid - 1e-12 * grid and e >= golden - 1e-12 * golden, config
            assert e == _edge_e(t, caps, n_th, r, tau_e, split[2]), config
            assert split[:2] == (tau_e / split[2], 1.0), config
            if e > 0.0:
                where.add(_split_position(split))
            else:
                assert split == (1.0, 1.0, tau_e), config
            short += golden < e * (1.0 - 1e-9)
        assert "(1, 1, tau_e)" in where, where
        if MoKind.EM not in t.kinds:
            assert "(tau_e / t_3, 1, t_3)" in where and short >= 1, (where, short)

    def test_nothing_entangles_at_r_0(self):
        # at r = 0 the EO node correlates nothing, and the result is the
        # first end with 0.0, as where no split entangles
        caps = PRESETS["brubaker2022"]["caps"]
        for t in _THREE_SLOT:
            assert optimize_loss_split(t, caps, 0.0, 0.0, 0.5) == ((1.0, 1.0, 0.5), 0.0)


def _nested_loss_split(t, caps, n_th, r, tau_e):
    """The 3-slot split and value by the nested ascent: over t_3, with a
    cooperativity solve (optimize_cooperativities) at every split."""
    converter = thresholds._ConverterNode(caps, caps.tau_a, n_th)
    lead = 1.0 + 1.0 / math.tanh(r) if r > 0.0 else 0.0

    def peak(mu):
        t3 = float(-converter.argmax(mu)[1] * lead)
        return min(1.0, t3) if t3 > tau_e else tau_e

    def margin_of_split(t3):
        # the margin at the returned point, read through network's own
        # binding of _mm_excess, so that a count on thresholds' sees only
        # the solves
        split = (tau_e / t3, 1.0, t3)
        cs, e = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
        return network._margin_of_excess(network._mm_excess(t, caps, n_th, r, cs, split)) if e > 0.0 else 0.0

    t3, m = thresholds._ascend(peak(0.0), margin_of_split, peak)
    if not m > 0.0:
        t3 = tau_e
    return (tau_e / t3, 1.0, t3), _log2_negativity(m)


def _joint_draws(n):
    """n draws (t, caps, n_th, r, tau_e) of the 3-slot swaps in turn: r in
    [0, 1.5], tau_e in [0.05, 1] and n_th up to 0.3 tau_a d_a."""
    rng = generator(20261020, stream=151)
    draws = []
    for i in range(n):
        rates = PhysicalRates(*(10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist(), 1.0)
        caps = random_caps(rng, rates)
        r, tau_e, share = rng.uniform(0.0, 1.5), rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.3)
        draws.append((_THREE_SLOT[i % 3], caps, share * caps.tau_a * caps.d_a, r, tau_e))
    return draws


class TestJointSplitAscent:
    """A 3-slot swap's split and cooperativities take one ascent, over
    (t_3, 4-tuple), and one solve at the split reached; the nested ascent,
    a cooperativity solve at every split, is its reference."""

    def test_never_below_the_nested_ascent(self, monkeypatch):
        calls = collections.Counter()
        counting = ["joint"]
        excess = thresholds._mm_excess

        def counted(*args):
            calls[counting[0]] += 1
            return excess(*args)

        monkeypatch.setattr(thresholds, "_mm_excess", counted)
        where = collections.Counter()
        for i, (t, caps, n_th, r, tau_e) in enumerate(_joint_draws(1500)):
            counting[0] = "joint"
            split, e = optimize_loss_split(t, caps, n_th, r, tau_e)
            counting[0] = "nested"
            ref_split, ref = _nested_loss_split(t, caps, n_th, r, tau_e)
            counting[0] = "check"
            config = (i, t.label, caps, n_th, r, tau_e, split, e, ref_split, ref)
            assert e >= ref - 1e-14 * max(1.0, abs(ref)), config
            assert e == optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)[1], config
            where[_split_position(split) if e > 0.0 else "none"] += 1
        assert calls["joint"] < calls["nested"], calls
        assert min(where[k] for k in ("none", "(1, 1, tau_e)", "(tau_e / t_3, 1, t_3)")) >= 20, where

    def test_solves_the_cell_once(self, monkeypatch):
        # no optimize_cooperativities call, and one _NodeRoot.solve per
        # call, at the split reached
        draws = _joint_draws(30)
        want = [optimize_loss_split(*draw) for draw in draws]
        solve, solved = _NodeRoot.solve, []

        def refuse(*args, **kwargs):
            raise AssertionError("optimize_cooperativities called")

        def counted(root):
            solved.append(root.split)
            return solve(root)

        monkeypatch.setattr(thresholds, "optimize_cooperativities", refuse)
        monkeypatch.setattr(_NodeRoot, "solve", counted)
        assert [optimize_loss_split(*draw) for draw in draws] == want
        assert solved == [split for split, _ in want]
        assert any(e > 0.0 for _, e in want)

    def test_builds_one_root_per_split(self, monkeypatch):
        # one _NodeRoot.of per t_3 that a call visits: the first best_at
        # (at mu = 0), each step of the ascent, and the split (1, 1,
        # tau_e) where no split entangles; a step's root also serves its
        # point's margin, and the final solve reuses the root at the
        # split reached
        draws = _joint_draws(300)
        want = [optimize_loss_split(*draw) for draw in draws]
        of, ascend, solve = _NodeRoot.of.__func__, thresholds._ascend, _NodeRoot.solve
        built, steps, solving = [], [0], [False]

        def counted_of(cls, *args):
            built.append(args[4])
            return of(cls, *args)

        def counted_ascend(x, margin, best_at):
            if solving[0]:  # a solve's own ascent, over cooperativities only
                return ascend(x, margin, best_at)

            def step(mu):
                steps[0] += 1
                return best_at(mu)

            return ascend(x, margin, step)

        def counted_solve(root):
            solving[0] = True
            try:
                return solve(root)
            finally:
                solving[0] = False

        monkeypatch.setattr(_NodeRoot, "of", classmethod(counted_of))
        monkeypatch.setattr(thresholds, "_ascend", counted_ascend)
        monkeypatch.setattr(_NodeRoot, "solve", counted_solve)
        total = 0
        for draw, w in zip(draws, want):
            built.clear()
            steps[0] = 0
            assert optimize_loss_split(*draw) == w
            config = (draw, w, built, steps[0])
            assert len(set(built)) == len(built), config
            assert len(built) <= steps[0] + 2, config
            total += steps[0]
        assert total >= len(draws) // 2, total  # the ascents take steps


_EM_TOPOLOGIES = [t for t in ALL_TOPOLOGIES if MoKind.EM in t.kinds]
_EM_EDGES = ("random", "small r", "d_b <= d_a - 1", "d_b >= d_a + 1", "d_b within 1 of d_a")


def _em_draw(rng, t, edge):
    """(caps, n_th, r, tau_e, split) for a layout with an EM source.

    Efficiencies from 0.8 let every EM layout entangle, and rates of 0.1
    to 300 let the stability lines of an IO or IM partner bind.  edge
    picks "small r" (r from 1e-8 to 1e-3), "d_b <= d_a - 1", where the
    EM node's best C_a may sit inside its cap, "d_b >= d_a + 1", where
    its best C_b may, "d_b within 1 of d_a", where it is best at its
    caps, or caps of 0.1 to 3e3 ("random").  n_th is 0 in a
    fifth of the draws, else log-spread over 5.5 decades below min(tau_a
    d_a, tau_b d_b); every slot takes a random share.
    """
    rates = PhysicalRates(*(10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist(), 1.0)
    d_a, d_b = (10.0 ** rng.uniform(-1.0, 3.5, 2)).tolist()
    if edge == "d_b <= d_a - 1":
        d_a = 1.0 + d_b * 10.0 ** rng.uniform(0.0, 2.0)
    elif edge == "d_b >= d_a + 1":
        d_b = (1.0 + d_a) * 10.0 ** rng.uniform(0.0, 3.0)
    elif edge == "d_b within 1 of d_a":
        d_b = max(d_a - 1.0, 0.0) + rng.uniform(0.0, 2.0)
    tau_a, tau_b = rng.uniform(0.8, 1.0, 2).tolist()
    caps = DeviceCaps(d_a, d_b, tau_a, tau_b, 0.0, rates)
    r = 10.0 ** rng.uniform(-8.0, -3.0) if edge == "small r" else rng.uniform(0.05, 1.5)
    n_th = 0.0 if rng.uniform() < 0.2 else min(tau_a * d_a, tau_b * d_b) * 10.0 ** rng.uniform(-6.0, -0.5)
    split = tuple(rng.uniform(0.5, 1.0, loss_slot_count(t)).tolist())
    return caps, n_th, r, math.prod(split), split


def _em_piece(t, caps, cs) -> str:
    """Where the EM node of t sits in cs: at (0, 0), a cap corner, or with C_a or C_b inside its cap."""
    c_a, c_b = cs[2:] if t.kinds[0] is MoKind.EO else cs[:2]
    if c_a == c_b == 0.0:
        return "zero"
    if c_b == caps.d_b:
        return "corner" if c_a == caps.d_a else "C_a inside"
    return "C_b inside" if c_a == caps.d_a else "elsewhere"


class TestEmNode:
    """An EM source is solved node by node too: its best point at mu is the
    first best of (0, 0), (min(d_a, 1 + d_b), d_b) and (d_a, min(d_b, 1 +
    d_a + 2 n_th / kappa))."""

    def test_reaches_the_search(self):
        # the box's own search and the test's pattern search, on all five EM
        # topologies: the root is never lower, and its argmax re-evaluates
        # through the public path.  The edges put the EM node's best point
        # on every branch of its candidates
        rng = generator(20260808, stream=133)
        pieces, entangled = set(), set()
        for edge in _EM_EDGES:
            for i in range(3 * len(_EM_TOPOLOGIES)):
                t = _EM_TOPOLOGIES[i % len(_EM_TOPOLOGIES)]
                caps, n_th, r, tau_e, split = _em_draw(rng, t, edge)
                box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
                cs, e = optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)
                v = _log2_negativity(max(box.search(16, 250)[1],
                                         _free_search(box.margin, box.hi, rng)))
                config = (i, edge, t.label, caps, n_th, r, split, cs, e, v)
                assert e >= v - 1e-12 * max(1.0, abs(v)), config
                cfg = NetworkConfig(replace(caps, n_th=n_th), *cs, r=r, tau_e=tau_e, loss_split=split)
                assert abs(e - mm_log_negativity(t, cfg)) <= 1e-12, config
                if e > 0.0:
                    entangled.add((edge, t.label))
                    pieces.add(_em_piece(t, caps, cs))
                else:
                    assert cs == box.full([0.0] * len(box.hi)), config
        assert pieces == {"C_a inside", "C_b inside", "corner"}, pieces
        assert {label for _, label in entangled} == {t.label for t in _EM_TOPOLOGIES}, entangled
        assert {edge for edge, _ in entangled} == set(_EM_EDGES), entangled

    def test_argmax_beats_a_dense_grid_of_h(self):
        # h from the EM state itself, -(P + mu A) / (B + mu) with A the
        # optical excess of sources._mo_excess, on a dense grid of the box:
        # the node's value agrees with it, and no grid point beats its argmax
        rng = generator(20260808, stream=134)
        branches = set()
        for i in range(60):
            edge = ("random", "d_b <= d_a - 1", "d_b >= d_a + 1")[i % 3]
            caps, n_th, r, *_ = _em_draw(rng, Topology.down(MoKind.EM), edge)
            mu = 0.0 if i % 4 == 0 else 0.5 * 10.0 ** rng.uniform(-8.0, 0.0)
            node = thresholds._EmNode(caps, n_th, math.sinh(r) ** 2)
            x = _dense_grid([caps.d_a, caps.d_b])
            A, B, _, P = sources._mo_excess(MoKind.EM, x[0], x[1], caps.tau_a, caps.tau_b, n_th, r)
            h = -(P + mu * A) / (B + mu)
            for k in rng.integers(x.shape[1], size=20).tolist():
                got = node.h(float(x[0, k]), float(x[1, k]), node.kappa(mu))
                assert got == pytest.approx(h[k], rel=1e-12, abs=1e-300), (i, caps, n_th, r, mu)
            (c_a, c_b), value = node.argmax(mu)
            config = (i, caps, n_th, r, mu, c_a, c_b, value)
            assert value == node.h(c_a, c_b, node.kappa(mu)) or (c_a, c_b) == (0.0, 0.0), config
            assert value >= np.max(h) - 1e-12 * max(1e-300, abs(value)), config
            if value > 0.0:
                branches.add("C_b = d_b" if c_b == caps.d_b else "C_b inside")
                branches.add("C_a = d_a" if c_a == caps.d_a else "C_a inside")
        assert branches == {"C_b = d_b", "C_b inside", "C_a = d_a", "C_a inside"}, branches

    def test_r_0_stops_at_mu_0(self):
        # at r = 0 an EM source correlates nothing: every EM layout returns
        # exactly 0 at the point with every axis at 0, without a step
        caps = PRESETS["brubaker2022"]["caps"]
        for t in _EM_TOPOLOGIES:
            for tau_e in (1.0, 0.5):
                box = _CooperativityBox.of(t, caps, caps.n_th, 0.0, tau_e)
                assert _separable_at_mu_0(box), (t.label, tau_e)
                cs, e = optimize_cooperativities(t, caps, caps.n_th, 0.0, tau_e=tau_e)
                assert e == 0.0 and cs == box.full([0.0] * len(box.hi)), (t.label, tau_e)


class TestNothingSearched:
    def test_production_never_searches(self, monkeypatch):
        # with every search patched to raise, optimize_cooperativities and
        # optimize_loss_split run on all 14 topologies, at r = 0 and r > 0
        def searched(*args, **kwargs):
            raise AssertionError("a production path searched")

        for module, name in ((thresholds, "maximize_box"), (optimize, "maximize_box"),
                             (thresholds, "_ranked_starts")):
            monkeypatch.setattr(module, name, searched)
        monkeypatch.setattr(_CooperativityBox, "search", searched)
        rng = generator(20260808, stream=135)
        entangled = set()
        for i in range(3 * len(ALL_TOPOLOGIES)):
            t = ALL_TOPOLOGIES[i % len(ALL_TOPOLOGIES)]
            caps, n_th, r, tau_e, split = _em_draw(rng, t, "random")
            for r_i in (0.0, r):
                _, e = optimize_cooperativities(t, caps, n_th, r_i, tau_e=tau_e, loss_split=split)
                _, e_split = optimize_loss_split(t, caps, n_th, r_i, tau_e)
                if e > 0.0 and e_split > 0.0:
                    entangled.add(t.label)
        assert len(entangled) == len(ALL_TOPOLOGIES), entangled


class TestOneRootPath:
    """The node-local root takes one path for every cell: a symmetric
    swap holds one node, and down(EO)'s two converter nodes reach the same
    point at every split, so neither needs a mirrored branch."""

    def test_mirrored_cells_need_no_branch(self):
        # random caps, rates, n_th (0 in about a fifth of the draws), r (0
        # in a fifth), splits (down(EO), every other draw, uniform in half
        # of its draws) and mu in {0} and geomspace(1e-8, 1).  The root's
        # argmax is x1 * 2, with the value that a mirrored branch computed
        # from node 1's point
        rng = generator(20261020, stream=161)
        swaps = [t for t in SYMMETRIC_TOPOLOGIES if t.scheme == "swap"]
        mus = [0.0] + np.geomspace(1e-8, 1.0, 17).tolist()
        seen = collections.Counter()
        for i in range(400):
            t = Topology.down(MoKind.EO) if i % 2 else swaps[i // 2 % len(swaps)]
            rates = PhysicalRates(*(10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist(), 1.0)
            caps = random_caps(rng, rates)
            n_th = 0.0 if rng.uniform() < 0.2 else caps.tau_a * caps.d_a * 10.0 ** rng.uniform(-4.0, 0.0)
            r = 0.0 if rng.uniform() < 0.2 else rng.uniform(0.0, 2.0)
            tau_e = rng.uniform(0.05, 1.0)
            t_1 = tau_e ** rng.uniform(0.0, 1.0)
            split = (math.sqrt(tau_e),) * 2 if i % 4 == 1 else (t_1, tau_e / t_1)
            root = _NodeRoot.of(t, caps, n_th, r, split)
            first, second = root.first, root.second
            assert (second is first) == (t.scheme == "swap"), t.label
            for mu in mus:
                x1, v1 = first.argmax(mu)
                x2, _ = second.argmax(mu)
                v2 = v1 if second is first else second.value(*x1, mu)
                config = (i, t.label, caps, n_th, r, split, mu)
                assert x2 == x1, config
                assert root.argmax(mu) == (x1 * 2, root.w1 * v1 + root.w2 * v2 - root.offset), config
            seen[(t.scheme, split[0] == split[1], r > 0.0)] += 1
        assert len(seen) == 6 and min(seen.values()) >= 15, seen


#: Entry points of the production solves, by module.
_PRODUCTION = {
    "thresholds": ("optimize_cooperativities", "optimize_loss_split", "analytic_threshold",
                   "max_stable_ca"),
    "experiments": ("cmd_device_run", "cmd_ebit_rate"),
}

#: The oracles' code: layout maps, margin closures, corner candidates and
#: searches, which production code must not reach.
_ORACLE_ONLY = {"_layout_coords", "_margin_closure", "_margin_fn", "_margin_fn_down", "_margin_fn4",
                "_converter_nodes", "_NODE_AXES", "_corner_candidates",
                "_CooperativityBox", "_entangled_at", "numeric_threshold", "_ranked_starts",
                "_unit_seed_grid", "maximize_box"}

#: The one production search: analytic_threshold's EM-swap row runs
#: Nelder-Mead from ranked starts where 2 tau_a tau_b > 1.  The rest of
#: its closed form (ROADMAP item 3(a)) retires this exception; the walk
#: does not follow it.
_SEARCH_EXCEPTION = "_maximize_em_swap_cell"


def _module_names(module) -> tuple[dict, dict]:
    """(definitions, imports from thresholds) of a module's top level, by name."""
    defs, imported = {}, {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defs.update((name.id, node) for name in ast.walk(target) if isinstance(name, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.module == "thresholds":
            imported.update((alias.asname or alias.name, alias.name) for alias in node.names)
    return defs, imported


def _production_reach() -> dict:
    """Each (module, name) that the production entry points reach, mapped to the path there.

    A definition of thresholds or experiments is followed through every
    name that its body loads or imports from thresholds (a local name
    that shadows a module-level one counts too, so the walk may reach
    more, never less); a name bound elsewhere is reached, not followed.
    """
    modules = {"thresholds": _module_names(thresholds), "experiments": _module_names(experiments)}
    paths = {(module, name): (name,) for module, names in _PRODUCTION.items() for name in names}
    todo = list(paths)
    while todo:
        module, name = todo.pop()
        defs, imported = modules[module]
        if name == _SEARCH_EXCEPTION or name not in defs:
            continue
        refs = []
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append(node.id)
            elif isinstance(node, ast.ImportFrom) and node.module == "thresholds":
                refs += [alias.name for alias in node.names]
        for ref in refs:
            key = ("thresholds", imported[ref]) if ref in imported else (module, ref)
            if key not in paths:
                paths[key] = paths[(module, name)] + (key[1],)
                todo.append(key)
    return paths


class TestOracleBoundary:
    """No production solve reaches the oracles' layout, closures or
    searches (ROADMAP item 17, in place): the oracles stay independent
    of the code they check."""

    def test_production_reaches_no_oracle_code(self):
        stale = sorted(name for name in _ORACLE_ONLY if not hasattr(thresholds, name))
        assert not stale, stale
        paths = _production_reach()
        leaks = sorted(" -> ".join(path) for (_, name), path in paths.items() if name in _ORACLE_ONLY)
        assert not leaks, leaks
        assert ("thresholds", _SEARCH_EXCEPTION) in paths
        for name in ("_NodeRoot", "_checked_cell", "_blue_node", "_stable_bound", "_device_point"):
            assert any(key[1] == name for key in paths), name
