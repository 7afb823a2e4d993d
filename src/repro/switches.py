"""The environment kill switches, parsed by one rule.

``REPRO_SPATIAL_INDEX``, ``REPRO_EVENT_BATCH``, ``REPRO_ROUTING_FAST``,
``REPRO_FAST_FIT`` and ``REPRO_ATTRIBUTION`` are each on unless set to
``0``, ``false`` or ``no``.
"""

import os


def switch_on(name: str) -> bool:
    """Whether the kill switch ``name`` is on (the default when unset)."""
    return os.environ.get(name, "1") not in ("0", "false", "no")
