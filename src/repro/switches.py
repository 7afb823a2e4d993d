"""The environment kill switches, parsed by one rule.

``REPRO_SPATIAL_INDEX``, ``REPRO_EVENT_BATCH``, ``REPRO_ROUTING_FAST``,
``REPRO_FAST_FIT`` and ``REPRO_ATTRIBUTION`` are each on unless set to
``0``, ``false`` or ``no``.  :func:`forced` pins any of them for a block
of code (the benchmarks time the reference and fast paths this way).
"""

import os
from contextlib import contextmanager
from typing import Iterator


def switch_on(name: str) -> bool:
    """Whether the kill switch ``name`` is on (the default when unset)."""
    return os.environ.get(name, "1") not in ("0", "false", "no")


@contextmanager
def forced(**flags: bool) -> Iterator[None]:
    """Set ``REPRO_<NAME>`` for each ``name=on`` flag, restoring on exit.

    ``forced(spatial_index=False, event_batch=False)`` runs the block
    with ``REPRO_SPATIAL_INDEX=0 REPRO_EVENT_BATCH=0``; variables that
    were unset before are unset again afterwards.
    """
    names = {f"REPRO_{flag.upper()}": on for flag, on in flags.items()}
    prior = {name: os.environ.get(name) for name in names}
    os.environ.update({name: "1" if on else "0" for name, on in names.items()})
    try:
        yield
    finally:
        for name, value in prior.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
