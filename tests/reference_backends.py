"""Test-only selector for the network's reference neighbour engine.

:class:`repro.net.network.Network` picks its neighbour engine from what the
radio reports (see the ``net/network.py`` module docstring):

* a uniform link radius and a bounded ``max_range()`` select the production
  CSR link state with batched delivery;
* anything else — no uniform link radius, or an unbounded ``max_range()`` —
  selects the brute-force scan.

:func:`use_backend` re-points an already built network at the brute-force
scan: it installs, as the network's radio, a fresh instance of a subclass
whose ``max_range()`` reports ``None``, then calls ``invalidate_topology()``.
The new radio carries the old one's state (ranges, RNG stream, mutation
listeners), so a seeded run on the reference engine must replay the
production run bit for bit.  A fresh instance, unlike a radio whose
``__class__`` is swapped in place, keeps CPython's fast attribute access.
Nothing under ``src/`` imports this module.
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
    directly.
    """
    return type("BruteForce" + base.__name__, (base,),
                {"max_range": _reports_none})


def reference_radio(radio: RadioModel) -> RadioModel:
    """A copy of ``radio`` that selects the brute-force scan.

    The copy is a fresh instance of :func:`reference_class` sharing the
    radio's attributes: its RNG stream, its range tables and its mutation
    listeners, so a network registered on the radio hears the copy's
    mutations.  Use the returned radio from then on and leave the old one
    alone.
    """
    copy = object.__new__(reference_class(type(radio)))
    copy.__dict__.update(radio.__dict__)
    return copy


def use_backend(network: Network, backend: str) -> Network:
    """Re-point ``network`` at ``backend``: production or brute force."""
    if backend == BRUTE_FORCE:
        network.radio = reference_radio(network.radio)
        network.invalidate_topology()
    elif backend != PRODUCTION:
        raise ValueError(f"unknown neighbour engine {backend!r}")
    return network
