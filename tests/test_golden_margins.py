"""Bit-identity of the margin closures against a recorded golden file.

golden_margins.json holds the float.hex of every margin factory's value,
with the guard on and off, at seeded points of all 14 topologies: half
of them drawn over the caps and half within 1e-12..1 of the first
stability criterion, where the guard and the stability check decide.
It was recorded before the margin closures were staged, so any change
in the order of their floating-point operations shows up here as a
changed last bit.  Each case is also evaluated once on arrays, which
must give the same bits as the points one at a time.

Rerecord (only for a deliberate change of the arithmetic) with
``PYTHONPATH=src python tests/test_golden_margins.py --write``.
"""

import json
import sys
from pathlib import Path

import numpy as np

from gausslink.network import ALL_TOPOLOGIES, loss_slot_count
from gausslink.sources import MoKind
from gausslink.transducer import DeviceCaps, PhysicalRates
from gausslink.thresholds import _margin_fn, _margin_fn4, _margin_fn_down

GOLDEN = Path(__file__).with_name("golden_margins.json")
SEED = 20261018
POINTS = 12


def _split(rng, t, tau_e):
    """A valid loss split with random shares, one per slot of t."""
    n = loss_slot_count(t)
    shares = [float(tau_e ** w) for w in rng.dirichlet(np.ones(n))]
    shares[-1] = tau_e / float(np.prod(shares[:-1]))
    return tuple(min(max(f, tau_e), 1.0) for f in shares)


def _cases():
    """(key, factory, args, points) of every recorded case, in file order."""
    rng = np.random.default_rng(SEED)
    for i, t in enumerate(ALL_TOPOLOGIES):
        rates = PhysicalRates(rng.uniform(1.0, 1e3), rng.uniform(1.0, 1e3), 1.0)
        caps = DeviceCaps(rng.uniform(0.5, 40.0), rng.uniform(0.5, 20.0), rng.uniform(0.3, 1.0),
                          rng.uniform(0.3, 1.0), 0.0, rates)
        n_th = 0.0 if i % 4 == 0 else rng.uniform(0.0, 2.0)
        r = 0.0 if i % 7 == 2 else rng.uniform(0.05, 1.2)
        split = _split(rng, t, rng.uniform(0.4, 1.0))
        x = np.stack([rng.uniform(0.0, d, POINTS) for d in (caps.d_a, caps.d_b) * 2])
        half = POINTS // 2
        # the blue-pumped side of each node within 1e-12..1 of the first criterion
        for node, kind in enumerate((t.kinds * 2)[:2]):
            plus, minus = (2 * node + 1, 2 * node) if kind is MoKind.IM else (2 * node, 2 * node + 1)
            cap = caps.d_b if kind is MoKind.IM else caps.d_a
            x[plus, :half] = np.clip(
                1.0 + x[minus, :half] - 10.0 ** rng.uniform(-12.0, 0.0, half), 0.0, cap
            )
        x[:, 0] = (caps.d_a, caps.d_b) * 2  # the all-max corner
        factories = (_margin_fn, _margin_fn4) + ((_margin_fn_down,) if t.scheme == "down" else ())
        for factory in factories:
            for guard in (False, True):
                key = f"{t.label}|{factory.__name__}|{'guard' if guard else 'open'}"
                yield key, factory, (t, caps, n_th, r, split, guard), x


def _evaluate(factory, args, x):
    """(hex of each scalar evaluation, hex of the one array evaluation)."""
    t, caps, n_th, r, split, guard = args
    margin = factory(t, caps, n_th, r, split, guard=guard)
    one = [float(margin(x[:, i].tolist())).hex() for i in range(x.shape[1])]
    many = [float(v).hex() for v in margin(x)]
    return one, many


def test_margins_are_bit_identical_to_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    keys = []
    for key, factory, args, x in _cases():
        one, many = _evaluate(factory, args, x)
        assert one == golden[key], key
        assert many == golden[key], key
        keys.append(key)
    assert sorted(keys) == sorted(golden)
    assert len(keys) == 64


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    record = {}
    for key, factory, args, x in _cases():
        one, many = _evaluate(factory, args, x)
        assert one == many, key
        record[key] = one
    GOLDEN.write_text(json.dumps(record, separators=(",", ":"), indent=0) + "\n")
