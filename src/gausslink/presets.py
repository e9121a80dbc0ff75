"""Bundled device presets.

The brubaker2022 preset models a recently demonstrated electro-opto-
mechanical transducer pair.  Fixed conversion losses (optical mode
matching and microwave transmission) are folded into the port
transmissivities, so the caps below are the effective values seen by
the Gaussian channel.
"""

from __future__ import annotations

from .transducer import DeviceCaps, PhysicalRates

__all__ = ["brubaker2022_caps", "PRESETS"]

# Reported operating point: bare transmissivities 0.791 (optical) and
# 0.866 (microwave), with mode-matching / transmission factors 0.88 and
# 0.34 folded in once per used port.
_TAU_A = 0.791 * 0.88
_TAU_B = 0.866 * 0.34

# Only the linewidth-to-gamma_m ratios enter the second stability
# criterion.  These ratios cap the blue-optical-pump cooperativity near
# 54, which keeps the intrinsic-optical routes separable at this
# operating point while leaving the intrinsic-microwave routes
# unconstrained, matching the device's reported behavior.
_RATES = PhysicalRates(kappa_a=1000.0, kappa_b=50.0, gamma_m=1.0)


def brubaker2022_caps() -> DeviceCaps:
    """Caps of the bundled realistic-device preset."""
    return DeviceCaps(
        d_a=26000.0,
        d_b=124.0,
        tau_a=_TAU_A,
        tau_b=_TAU_B,
        n_th=1000.0,
        rates=_RATES,
    )


PRESETS = {"brubaker2022": {"caps": brubaker2022_caps()}}
