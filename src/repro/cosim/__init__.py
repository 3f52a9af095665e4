"""Co-simulation: real training on simulated wall-clock (Figure-15-style
comparisons generalized to every system the paper discusses): the systems;
:func:`repro.analysis.compare_systems` runs them."""

from .cosim import SystemSpec, paper_systems

__all__ = [
    "SystemSpec",
    "paper_systems",
]
