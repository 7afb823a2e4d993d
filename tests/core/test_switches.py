"""The five environment kill switches share one parsing rule.

Each is on unless set to ``0``, ``false`` or ``no`` — checked through the
reader each subsystem actually consults, so a site with its own parser
(``REPRO_FAST_FIT=false`` once left the fast fit on) fails here.
"""

import numpy as np
import pytest

from repro.attribution import attribution_enabled
from repro.ml.decision_tree import C45Classifier
from repro.routing.base import _default_routing_fast
from repro.simulation.engine import _default_event_batch
from repro.simulation.medium import _default_use_index
from repro.switches import switch_on


def _fast_fit_on() -> bool:
    tree = C45Classifier()
    tree.n_classes_ = 2
    tree.n_values_ = np.array([3, 4])  # small cardinalities: only the switch decides
    return tree._fast_fit_usable()


READERS = {
    "REPRO_SPATIAL_INDEX": _default_use_index,
    "REPRO_EVENT_BATCH": _default_event_batch,
    "REPRO_ROUTING_FAST": _default_routing_fast,
    "REPRO_FAST_FIT": _fast_fit_on,
    "REPRO_ATTRIBUTION": attribution_enabled,
}


@pytest.mark.parametrize("value, on", [
    ("0", False), ("false", False), ("no", False), ("1", True),
])
@pytest.mark.parametrize("name", sorted(READERS))
def test_switch_parsing_is_shared(monkeypatch, name, value, on):
    monkeypatch.setenv(name, value)
    assert switch_on(name) is on
    assert READERS[name]() is on


@pytest.mark.parametrize("name", sorted(READERS))
def test_unset_switch_is_on(monkeypatch, name):
    monkeypatch.delenv(name, raising=False)
    assert READERS[name]() is True
