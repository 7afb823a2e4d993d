"""The five environment kill switches share one parsing rule.

Each is on unless set to ``0``, ``false`` or ``no`` — checked through the
reader each subsystem actually consults, so a site with its own parser
(``REPRO_FAST_FIT=false`` once left the fast fit on) fails here.
"""

import os

import numpy as np
import pytest

from repro.attribution import attribution_enabled
from repro.core import model as model_module
from repro.core.model import CrossFeatureModel
from repro.ml.decision_tree import C45Classifier
from repro.routing.base import _default_routing_fast
from repro.simulation.engine import _default_event_batch
from repro.simulation.medium import _default_use_index
from repro.switches import forced, switch_on


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


@pytest.mark.parametrize("value", ["0", "false", "no"])
def test_fast_fit_off_skips_the_shared_pass(monkeypatch, value):
    """The model-level shared pass obeys the same parser as the tree-level
    fast fit: switched off, ``fit`` never builds a ``_SharedFitContext``."""

    class Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError("shared fit context built with the switch off")

    monkeypatch.setenv("REPRO_FAST_FIT", value)
    monkeypatch.setattr(model_module, "_SharedFitContext", Forbidden)
    X = np.random.default_rng(0).normal(size=(60, 4))
    assert CrossFeatureModel().fit(X).n_models == 4


def test_forced_sets_then_restores(monkeypatch):
    monkeypatch.setenv("REPRO_EVENT_BATCH", "no")
    monkeypatch.delenv("REPRO_SPATIAL_INDEX", raising=False)
    with forced(event_batch=True, spatial_index=False):
        assert _default_event_batch() is True
        assert _default_use_index() is False
    assert os.environ["REPRO_EVENT_BATCH"] == "no"
    assert "REPRO_SPATIAL_INDEX" not in os.environ
