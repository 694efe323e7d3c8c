"""Test-only selectors for the network's two reference neighbour engines.

:class:`repro.net.network.Network` picks its neighbour engine from what the
radio reports (see the ``net/network.py`` module docstring):

* a uniform link radius and a bounded ``max_range()`` select the production
  CSR link state with batched delivery;
* no uniform link radius selects the grid-candidate scan;
* an unbounded ``max_range()`` selects the brute-force scan.

:func:`use_backend` re-points an already built network at one of the two
reference engines by swapping its radio's class for a subclass that hides
the matching capability, then calling ``invalidate_topology()``.  The radio
keeps its state (ranges, RNG stream, mutation listeners), so a seeded run on
a reference engine must replay the production run bit for bit.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.net.network import Network
from repro.net.radio import RadioModel

__all__ = ["PRODUCTION", "GRID_SCAN", "BRUTE_FORCE", "reference_radio", "use_backend"]

PRODUCTION = "production"
GRID_SCAN = "grid-scan"
BRUTE_FORCE = "brute-force"

#: The radio capability each reference engine hides.
_HIDDEN = {GRID_SCAN: "uniform_link_radius", BRUTE_FORCE: "max_range"}


def _reports_none(self):
    return None


def reference_radio(radio: RadioModel, backend: str) -> RadioModel:
    """Turn ``radio`` (in place) into one that selects ``backend``.

    ``backend`` is :data:`GRID_SCAN` (no uniform link radius) or
    :data:`BRUTE_FORCE` (unbounded ``max_range()``).  A network already
    holding the radio must then call ``invalidate_topology()``.
    """
    base = type(radio)
    prefix = "GridScan" if backend == GRID_SCAN else "BruteForce"
    radio.__class__ = type(prefix + base.__name__, (base,),
                           {_HIDDEN[backend]: _reports_none})
    return radio


def use_backend(network: Network, backend: str) -> Network:
    """Re-point ``network`` at ``backend``: production or a reference engine."""
    if backend != PRODUCTION:
        reference_radio(network.radio, backend)
        network.invalidate_topology()
    return network
