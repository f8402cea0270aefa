"""The decode pipeline's numeric kernels.

The reader's arithmetic hot spots (Lloyd iterations, lattice matching,
edge-differential extraction, Viterbi) are pure numpy in
:mod:`.reference`.  Every decode calls them through :data:`KERNELS`,
looking the method up at each call.
"""

from __future__ import annotations

from typing import Optional

from ...errors import ConfigurationError
from .reference import ReferenceBackend

__all__ = ["KERNELS", "ReferenceBackend", "resolve_backend"]

#: The one kernel instance every decode dispatches through.
KERNELS = ReferenceBackend()


def resolve_backend(name: Optional[str] = None) -> ReferenceBackend:
    """:data:`KERNELS` for ``None`` or ``"reference"``.

    Any other name raises :class:`~repro.errors.ConfigurationError`.
    """
    if name is not None and name != "reference":
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected 'reference'")
    return KERNELS
