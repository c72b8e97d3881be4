"""Sumset growth toolkit.

Finite sets in commutative coordinate groups, their iterated sumsets A+hB,
the layered graphs those sumsets span, exact magnification ratios and
tight-set partitions, and certified evaluation of the classical and refined
growth bounds.

The package exports every name in its library modules' own ``__all__``; the
command line (``sumsetlab.cli``) stays out, so importing the package loads
neither it nor ``argparse``.
"""

from . import (
    bounds,
    constructions,
    errors,
    graphs,
    groups,
    instances,
    magnification,
    maxflow,
    partition,
    suite,
)

__version__ = "0.1.0"

_MODULES = (bounds, constructions, errors, graphs, groups, instances,
            magnification, maxflow, partition, suite)
globals().update((name, getattr(m, name)) for m in _MODULES for name in m.__all__)
__all__ = sorted(name for m in _MODULES for name in m.__all__)
