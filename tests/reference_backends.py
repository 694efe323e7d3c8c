"""Test-only selector for the network's reference neighbour engine.

:class:`repro.net.network.Network` picks its neighbour engine from what the
radio reports (see the ``net/network.py`` module docstring):

* a uniform link radius and a bounded ``max_range()`` select the production
  CSR link state with batched delivery;
* anything else — no uniform link radius, or an unbounded ``max_range()`` —
  selects the brute-force scan.

:func:`use_backend` re-points an already built network at the brute-force
scan by swapping its radio's class for a subclass whose ``max_range()``
reports ``None``, then calling ``invalidate_topology()``.  The radio keeps
its state (ranges, RNG stream, mutation listeners), so a seeded run on the
reference engine must replay the production run bit for bit.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from repro.net.network import Network
from repro.net.radio import RadioModel

__all__ = ["PRODUCTION", "BRUTE_FORCE", "reference_class", "reference_radio",
           "use_backend"]

PRODUCTION = "production"
BRUTE_FORCE = "brute-force"


def _reports_none(self):
    return None


def reference_class(base: type) -> type:
    """The subclass of radio class ``base`` that selects the brute-force scan.

    Its ``max_range()`` reports ``None``.  Benchmarks instantiate it
    directly: an instance built from it keeps CPython's fast attribute
    access, which a radio whose class is swapped in place loses.
    """
    return type("BruteForce" + base.__name__, (base,),
                {"max_range": _reports_none})


def reference_radio(radio: RadioModel) -> RadioModel:
    """Turn ``radio`` (in place) into one that selects the brute-force scan.

    The radio's ``max_range()`` then reports ``None``.  A network already
    holding the radio must then call ``invalidate_topology()``.
    """
    radio.__class__ = reference_class(type(radio))
    return radio


def use_backend(network: Network, backend: str) -> Network:
    """Re-point ``network`` at ``backend``: production or brute force."""
    if backend == BRUTE_FORCE:
        reference_radio(network.radio)
        network.invalidate_topology()
    elif backend != PRODUCTION:
        raise ValueError(f"unknown neighbour engine {backend!r}")
    return network
