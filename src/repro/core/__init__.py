"""P3's priority policies (slicing and placement: :mod:`repro.placement`)."""

from .priority import make_priorities

__all__ = ["make_priorities"]
