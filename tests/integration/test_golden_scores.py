"""Golden model digests: absolute anchors for training and scoring.

``test_fit_equivalence.py`` checks the shared-pass fit against the
reference fit *in the same binary*, so a change both paths share (the
discretizer, a classifier's smoothing, the calibration rule) would move
every score without failing it.  These values were recorded once and
are compared across commits.  An intentional change to what a detector
learns must update them visibly in the diff and say why.

For each protocol x classifier on the small ``PLAN`` of the fit
equivalence test, the detector is fitted once and the evaluation rows
(normal traces, then attacked traces) are pushed through its
sub-models.  Pinned per cell:

* sha256 of the ``matches`` matrix (0/1 per row x sub-model);
* sha256 of the ``p_true`` matrix.  C4.5 leaf probabilities are exact
  count ratios, pinned bit for bit.  Naive Bayes normalises through
  ``np.exp``, whose SIMD builds may differ in the last ulp between
  hosts, so its matrix is rounded to 9 decimals before hashing;
* ``repr`` of the calibrated threshold;
* the alarm indices (``scores < threshold``) over the evaluation rows.

Raw calibrated scores are not pinned: they pass through ``np.exp`` /
``np.log`` as well.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.runtime import Session
from tests.integration.test_fit_equivalence import PLAN

GOLDEN = {
    ("aodv", "c45"): (
        "bbbc840b3e1b45d7031b7cce3337c007801e3b698c2bf04fab30b688e062d11f",
        "2ac24885c9394081979917cd38b5463e1b5a94cc3c9b99282c03f3f4cd83718d",
        "0.4199614122243448",
        [],
    ),
    ("aodv", "nbc"): (
        "218c44c983eb451d79d417d18b43ec79be828740517d8cb293836b73d9fd5b02",
        "8d2df8ea0dc51917bb5cb70d064402d2000629f0ca61922c7947379aab6788fd",
        "0.2369998507722306",
        [],
    ),
    ("dsr", "c45"): (
        "9e0be331463483532ec67cf802d4b3600ca0d190300513b00cc446ddf79a1c8d",
        "39a65246c718ee2c4665fbaccf87248c7c2e896b1297f5cf4e72bf5dbca646ab",
        "0.9822584633508902",
        [*range(0, 21), *range(22, 42)],
    ),
    ("dsr", "nbc"): (
        "3407ec125114ddb820f4cbc8017ae373e4836d82302817b26795d9e439b80724",
        "e59b8ae0fb84231cfbbc58cda9de6f2de8f655631ecc6549365a6a53a4f31777",
        "0.739437569547757",
        [*range(1, 8), *range(9, 21), *range(27, 37), *range(38, 42)],
    ),
}


def _digest(matrix: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(matrix, dtype=np.float64).tobytes()
    ).hexdigest()


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return Session(cache_dir=tmp_path_factory.mktemp("golden-scores"))


@pytest.mark.parametrize("protocol, classifier", sorted(GOLDEN))
def test_golden_model_digests(session, protocol, classifier):
    plan = replace(PLAN, protocol=protocol)
    detector = session.fitted_detector(plan, classifier=classifier)
    bundle = session.bundle(plan)
    X = np.concatenate(
        [ds.X for ds in (*bundle.normal_evals, *bundle.abnormal_evals)]
    )
    matches, p_true = detector.model._sub_model_outputs(X)
    if classifier == "nbc":
        p_true = np.round(p_true, 9)
    result = session.detect(plan, classifier=classifier)
    alarms = np.flatnonzero(result.scores < result.threshold).tolist()

    matches_sha, p_true_sha, threshold, golden_alarms = GOLDEN[protocol, classifier]
    assert _digest(matches) == matches_sha
    assert _digest(p_true) == p_true_sha
    assert repr(detector.threshold_) == threshold
    assert result.threshold == detector.threshold_
    assert alarms == golden_alarms
