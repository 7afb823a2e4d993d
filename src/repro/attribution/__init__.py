"""Typed alarms: feature attribution, anomaly taxonomy, onset estimation.

The paper's §6 argues the cross-feature model "can be examined by human
experts"; this package does the examination automatically.  Three
layers, each usable alone:

* :mod:`~repro.attribution.contributions` — batched per-feature blame
  from sub-model disagreement (``1 - calibrated`` per sub-model).
* :mod:`~repro.attribution.taxonomy` — a declarative, fit-free registry
  mapping signed-activity signatures (per packet-type × direction
  deviations vs. recent normal traffic) to typed classes
  (``flooding``, ``blackhole``, ``dropping``, ``impersonation``,
  ``route_instability``, ``unknown``), with blame shares as fallback.
* :mod:`~repro.attribution.changepoint` — CUSUM onset localisation over
  the score stream plus DETONAR-style per-feature forecast residuals.

:class:`AlarmAttributor` composes them per stream;
:func:`fuse_verdicts` lifts lane verdicts to a fleet verdict.
Attribution runs strictly after scoring and never feeds back into it:
scores, alarms and fused timing are bit-identical with it on or off.
``REPRO_ATTRIBUTION=0`` disables the whole subsystem.
"""

from __future__ import annotations

from repro.attribution.attributor import AlarmAttributor, Verdict, fuse_verdicts
from repro.attribution.changepoint import (
    ChangePoint,
    ScoreCusum,
    residual_flags,
    residual_zscores,
    score_change_points,
)
from repro.attribution.contributions import (
    contribution_matrix,
    feature_labels,
    target_indices,
    top_contributors,
)
from repro.attribution.taxonomy import (
    ACTIVITY_DAMPING,
    ACTIVITY_MIN_MATCH,
    ANOMALY_TYPES,
    GROUPS,
    MIN_MATCH,
    UNKNOWN,
    AnomalyType,
    classify_activity,
    classify_shares,
    feature_group,
    fine_group,
    group_shares,
    signed_activity,
)
from repro.switches import switch_on

__all__ = [
    "ACTIVITY_DAMPING",
    "ACTIVITY_MIN_MATCH",
    "ANOMALY_TYPES",
    "AlarmAttributor",
    "AnomalyType",
    "ChangePoint",
    "GROUPS",
    "MIN_MATCH",
    "ScoreCusum",
    "UNKNOWN",
    "Verdict",
    "attribution_enabled",
    "classify_activity",
    "classify_shares",
    "contribution_matrix",
    "feature_group",
    "feature_labels",
    "fine_group",
    "fuse_verdicts",
    "group_shares",
    "residual_flags",
    "residual_zscores",
    "resolve_attributor",
    "score_change_points",
    "signed_activity",
    "target_indices",
    "top_contributors",
]


def attribution_enabled() -> bool:
    """The ``REPRO_ATTRIBUTION`` kill switch (default: enabled).

    Like ``REPRO_FAST_FIT`` / ``REPRO_EVENT_BATCH``, the environment is
    consulted at *construction* time, so one process can compare runs by
    flipping the variable between them.
    """
    return switch_on("REPRO_ATTRIBUTION")


def resolve_attributor(model, threshold, attribution) -> AlarmAttributor | None:
    """Normalise a detector's ``attribution`` argument.

    ``False``/``None`` → off; ``True`` → a default
    :class:`AlarmAttributor` over the detector's model and threshold; an
    :class:`AlarmAttributor` instance is adopted as-is.  The
    ``REPRO_ATTRIBUTION=0`` kill switch forces off in every case.
    """
    if attribution is None or attribution is False:
        return None
    if not attribution_enabled():
        return None
    if attribution is True:
        return AlarmAttributor(model, threshold)
    return attribution
