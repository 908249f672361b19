"""Unit helpers and physical constants.

Internal convention everywhere in this package:
  frequency Hz, length m, inductance H, capacitance F, power dBm or W.
The CLI layer accepts GHz / MHz / um / nm and converts on entry.
"""

GHz = 1e9
MHz = 1e6
um = 1e-6
nm = 1e-9

HBAR = 1.054571817e-34  # J s

# Ground-state hyperfine splitting of 87Rb, the tuning target.
F_RB = 6.834683e9


def dbm_to_watts(p_dbm):
    """Exact dBm -> W conversion, P_W = 10**((dBm - 30)/10)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)
