import math
from dataclasses import replace

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
from gausslink.experiments import ExperimentConfig, _device_cells, cmd_device_run
from gausslink.network import ALL_TOPOLOGIES, default_loss_split, loss_slot_count
from gausslink.optimize import maximize_box
from gausslink.presets import PRESETS
from gausslink.sampling import generator, random_caps
from gausslink.sources import MoKind
from gausslink.thresholds import (
    _CooperativityBox,
    _em_down_cell,
    _em_swap_cell,
    _margin_fn,
    _margin_fn4,
    _margin_fn_down,
    _ranked_starts,
    _stable_bound,
    stability_ok,
)


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
        caps = DeviceCaps(100.0, 10.0, 0.9, 0.8, 0.0)
        res = analytic_threshold(Topology.swap_sym(MoKind.EM), caps, 0.0, c_a=11.0, c_b=10.0)
        want = 0.8 * 10.0 - (1 + 11.0 + 10.0) ** 2 / (8 * 0.9 * 11.0)
        assert res.n_th_max == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError):
            analytic_threshold(Topology.swap_sym(MoKind.EM), caps, 0.0, c_a=11.0)

    def test_cooperativities_only_on_em_rows(self):
        caps = DeviceCaps(100.0, 10.0, 0.9, 0.8, 0.0)
        for kind in (MoKind.EO, MoKind.IO, MoKind.IM):
            for t in (Topology.down(kind), Topology.swap_sym(kind)):
                for kw in (dict(c_a=11.0, c_b=10.0), dict(c_a=11.0), dict(c_b=5.0)):
                    with pytest.raises(ValueError, match="only to extrinsic-microwave"):
                        analytic_threshold(t, caps, 0.5, **kw)

    @pytest.mark.parametrize(
        "c_a, c_b", [(1e6, 10.0), (11.0, -3.0), (math.nan, 10.0), (11.0, math.inf)]
    )
    def test_em_point_must_lie_within_the_caps(self, c_a, c_b):
        caps = DeviceCaps(100.0, 10.0, 0.9, 0.8, 0.0)
        for t in (Topology.down(MoKind.EM), Topology.swap_sym(MoKind.EM)):
            with pytest.raises(ValueError, match="violates 0 <= c_"):
                analytic_threshold(t, caps, 0.0, c_a=c_a, c_b=c_b)

    def test_all_cells_below_global_bound(self, rng):
        # EM cells are sampled at supplied cooperativities (their table
        # entries are parameterized); the other rows are the optimized cells
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
            for t in (Topology.down(MoKind.EM), Topology.swap_sym(MoKind.EM)):
                res = analytic_threshold(t, caps, r, c_a=c_a, c_b=c_b)
                assert res.n_th_max <= bound


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
    search; EM-swap, a search, against its closed-form candidates."""

    def _check(self, caps, r):
        down = analytic_threshold(Topology.down(MoKind.EM), caps, r)
        searched = _em_down_search(caps)
        assert down.can_entangle == (searched > 0.0), caps
        assert down.n_th_max >= searched - 1e-12 * abs(searched), (caps, down, searched)
        t = Topology.swap_sym(MoKind.EM)
        got = analytic_threshold(t, caps, r)
        best = max(
            analytic_threshold(t, caps, r, c_a=ca, c_b=cb).n_th_max
            for ca, cb in _em_swap_candidates(caps)
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
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            optimize_loss_split(t, caps, 0.2, 0.0, 0.5, budget=(n_starts, nm_max_iter))

    def test_smallest_search_budget_still_searches(self):
        # one start and no simplex steps: the best ranked point, polished
        caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 0.2)
        t = Topology.swap_sym(MoKind.IM)
        _, e = optimize_cooperativities(t, caps, 0.2, n_starts=1, nm_max_iter=0)
        _, e_full = optimize_cooperativities(t, caps, 0.2)
        assert e == pytest.approx(e_full, rel=1e-4)

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


def _corner_threshold(t, caps, r, tau_e, split):
    """n_th at which the all-max corner's margin turns <= 0, by bisection."""
    lo, hi = 0.0, caps.tau_a * caps.d_a
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        box = _CooperativityBox.of(t, caps, mid, r, tau_e, split)
        lo, hi = (lo, mid) if box.margin(box.corners[0]) <= 0.0 else (mid, hi)
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


class TestCornerShortcut:
    """optimize_cooperativities skips its search where the all-max corner
    proves a cell separable."""

    def test_sound_on_random_draws(self):
        # wherever the shortcut fires, neither a dense grid of the margin
        # nor the full search finds a positive margin
        rng = generator(20260808, stream=110)
        fired = mirrored = 0
        for i in range(560):
            t = ALL_TOPOLOGIES[i % len(ALL_TOPOLOGIES)]
            caps, n_th, r, tau_e, split = _shortcut_draw(rng, t)
            box = _CooperativityBox.of(t, caps, n_th, r, tau_e, split)
            if not box.corner_separable():
                continue
            config = (i, t.label, caps, n_th, r, split)
            # the dense grid covers the whole box, without the converter pin
            factory = _margin_fn if box.mirrored else _margin_fn4
            free = factory(t, caps, n_th, r, split)
            hi = [caps.d_a, caps.d_b] * (1 if box.mirrored else 2)
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
                assert box.corner_separable() is fires, (t.label, caps, r, factor)
            checked += 1
        assert checked >= 10

    def test_device_run_unchanged_without_the_shortcut(self, monkeypatch):
        cfg = ExperimentConfig(experiment="device-run", points=13, jobs=1)
        _, text = cmd_device_run(cfg)
        monkeypatch.setattr(_CooperativityBox, "corner_separable", lambda box: False)
        _, searched = cmd_device_run(cfg)
        assert text == searched


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
        # one axis per free cooperativity: a converter node keeps only C_a
        caps = PRESETS["brubaker2022"]["caps"]
        want = {"eo_down": 1, "eo_swap": 2, "eo_swap_eqsplit": 1, "em_down": 3,
                "em_swap": 4, "io_down": 3, "io_swap": 4, "im_down": 3, "im_swap": 4,
                "im_swap_eqsplit": 2, "im_eo_swap_asym": 3}
        # at 0 dB every default split is uniform and the symmetric swaps mirror
        at_0db = dict(want, eo_swap=1, em_swap=2, io_swap=2, im_swap=2)
        for tau_e, dims in ((0.5, want), (1.0, at_0db)):
            for name, t, r, split, _ in _device_cells((3.0, 10.0), tau_e):
                box = _CooperativityBox.of(t, caps, caps.n_th, r, tau_e, split)
                column = name.rsplit("_", 1)[0] if name.endswith("db") else name
                assert len(box.hi) == dims[column], (name, tau_e)

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
        split, e = optimize_loss_split(t, caps, caps.n_th, r, tau_e=0.7, budget=(6, 80))
        _, e_default = optimize_cooperativities(
            t, caps, caps.n_th, r, tau_e=0.7, loss_split=(1.0, 1.0, 0.7)
        )
        assert e >= e_default - 1e-9
        assert split[2] == pytest.approx(0.7, abs=1e-6)

    def test_asym_two_slot_search_never_below_endpoints(self):
        caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 0.2)
        t = Topology.swap_asym(MoKind.IM, MoKind.EM)
        tau_e, budget = 0.6, (3, 40)
        split, e = optimize_loss_split(t, caps, caps.n_th, 0.8, tau_e, budget=budget)
        assert len(split) == 2
        assert math.prod(split) == pytest.approx(tau_e, rel=1e-12)
        for end in ((tau_e, 1.0), (1.0, tau_e)):
            _, e_end = optimize_cooperativities(
                t, caps, caps.n_th, 0.8, tau_e=tau_e, loss_split=end,
                n_starts=budget[0], nm_max_iter=budget[1],
            )
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
