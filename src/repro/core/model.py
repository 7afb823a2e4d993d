"""Cross-feature analysis model (Algorithms 1-3) and the bundled detector.

:class:`CrossFeatureModel` implements the training procedure — one
sub-model ``C_i : {f1..fL} \\ {fi} -> fi`` per feature over discretized
normal vectors — and the two test procedures, exposed uniformly as
``normality_score(X, method=...)`` where *higher means more normal*.

:class:`CrossFeatureDetector` adds the decision threshold (selected on
normal data at a target false-alarm rate) for a ready-to-use
normal/anomaly classifier.

A sub-model's probability for a *bucket never seen in normal training
data* is zero: the combination "this feature took a value normal traffic
never produced" is exactly the anomaly evidence the framework looks for.

Besides the two paper algorithms, the model offers a third scoring rule,
``"calibrated_probability"``: each sub-model's probability is first
normalised by that sub-model's typical probability on *held-out* normal
data, and the calibrated values are pooled with a (floored) geometric
mean.  Motivation: at the laptop trace scales of this reproduction, many
features are intrinsically hard to predict out of sample, and their
sub-models contribute chance-level noise to the plain average that buries
the signal of the reliable sub-models.  Calibration makes an
unpredictable sub-model *neutral* (≈1 under normal and attack alike)
while a reliable sub-model that suddenly fails keeps its full signal; the
geometric pooling approximates the product rule — the "optimal Bayesian
reasoning" the paper's footnote connects the framework to.  The paper's
own §6 ("a sub-model should be preferred where the labeled feature has
stronger confidence to appear in normal data") motivates exactly this
weighting.  Use ``method="avg_probability"`` for the verbatim
Algorithm 3.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.discretization import EqualFrequencyDiscretizer
from repro.core.scoring import average_match_count, average_probability
from repro.core.threshold import select_threshold
from repro.ml.base import CategoricalClassifier
from repro.ml.decision_tree import C45Classifier
from repro.switches import switch_on

ClassifierFactory = Callable[[], CategoricalClassifier]


def _fast_fit_enabled() -> bool:
    """Shared-pass ensemble training kill switch (``REPRO_FAST_FIT``)."""
    return switch_on("REPRO_FAST_FIT")


def _keep_indices(n_features: int, targets: Sequence[int]) -> dict[int, np.ndarray]:
    """Per-target column gathers replacing ``np.delete(codes, i, axis=1)``.

    ``codes[:, keep[i]]`` produces the identical "all features but f_i"
    matrix without rebuilding the deletion mask on every call — the same
    gather is reused by every fit and every scoring pass.
    """
    base = np.arange(n_features)
    return {
        int(i): np.concatenate((base[:i], base[i + 1:])) for i in targets
    }


def _pairwise_tables(
    codes: np.ndarray,
    n_values: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    max_chunk_elems: int = 8_000_000,
) -> dict[tuple[int, int], np.ndarray]:
    """Joint (value, value) contingency tables for column pairs.

    One fused ``bincount`` pass: each pair's ``k_a x k_b`` joint code is
    offset into its own block and the whole batch is counted at once
    (chunked over pairs so the flattened index matrix stays below
    ``max_chunk_elems``).  The counts are exactly what a per-pair
    ``bincount(codes[:, a] * k_b + codes[:, b])`` would produce.
    """
    n = len(codes)
    tables: dict[tuple[int, int], np.ndarray] = {}
    if not pairs or n == 0:
        return tables
    a_idx = np.fromiter((a for a, _ in pairs), dtype=np.int64, count=len(pairs))
    b_idx = np.fromiter((b for _, b in pairs), dtype=np.int64, count=len(pairs))
    sizes = n_values[a_idx] * n_values[b_idx]
    per_chunk = max(1, max_chunk_elems // n)
    for start in range(0, len(pairs), per_chunk):
        stop = min(start + per_chunk, len(pairs))
        aa, bb = a_idx[start:stop], b_idx[start:stop]
        sz = sizes[start:stop]
        offsets = np.concatenate(([0], np.cumsum(sz)[:-1])).astype(np.int64)
        flat = codes[:, aa] * n_values[bb][None, :] + codes[:, bb] + offsets[None, :]
        counts = np.bincount(flat.ravel(), minlength=int(sz.sum()))
        for p in range(stop - start):
            a, b = int(aa[p]), int(bb[p])
            tables[(a, b)] = counts[offsets[p]: offsets[p] + sz[p]].reshape(
                int(n_values[a]), int(n_values[b])
            )
    return tables


class _SharedFitContext:
    """Shared-pass precomputation for Algorithm 1's L sub-model fits.

    Discretized codes are scanned ONCE: the pairwise attribute<->target
    contingency tensor (every ``(f_j, f_i)`` joint table a root split
    search needs) comes out of one chunked ``bincount`` pass, and each
    sub-model receives its root-level tables plus a precomputed
    keep-index gather instead of paying its own full-data histogram and
    ``np.delete`` copy.  Only the upper triangle is counted — the
    ``(i, j)`` table is the transpose of ``(j, i)``.  All tables are
    integer counts, so the handed-off root statistics are exactly those
    a standalone fit would compute.
    """

    def __init__(self, codes: np.ndarray, targets: Sequence[int]):
        self.codes = codes
        n_features = codes.shape[1]
        self.n_values = (
            codes.max(axis=0) + 1 if len(codes) else np.ones(n_features, dtype=np.int64)
        )
        self.keep = _keep_indices(n_features, targets)
        wanted = {
            (min(i, j), max(i, j))
            for i in targets
            for j in range(n_features)
            if j != i
        }
        self.tables = _pairwise_tables(codes, self.n_values, sorted(wanted))

    def others(self, i: int) -> np.ndarray:
        """The "all features but f_i" attribute matrix (gather, not delete)."""
        return self.codes[:, self.keep[i]]

    def root_tables(self, i: int) -> list[np.ndarray]:
        """Root-level (attribute value, target class) tables for sub-model i."""
        return [
            self.tables[(j, i)] if j < i else self.tables[(i, j)].T
            for j in map(int, self.keep[i])
        ]


class CrossFeatureModel:
    """The trained ensemble of per-feature sub-models.

    Parameters
    ----------
    classifier_factory:
        Zero-argument callable producing a fresh sub-model learner
        (default: C4.5, the paper's best performer).
    n_buckets:
        Equal-frequency discretization buckets (paper: 5).
    max_models:
        Train only this many sub-models, chosen over a random subset of
        labelled features — the paper's §6 "fewer number of models"
        future-work knob.  None = all L sub-models.
    feature_subset:
        Restrict the whole analysis (attributes *and* labelled features)
        to these column indices.
    prefilter_fraction, random_state:
        Passed to the discretizer / subset sampling.
    """

    def __init__(
        self,
        classifier_factory: ClassifierFactory = C45Classifier,
        n_buckets: int = 5,
        max_models: int | None = None,
        feature_subset: Sequence[int] | None = None,
        prefilter_fraction: float | None = None,
        random_state: int = 0,
    ):
        self.classifier_factory = classifier_factory
        self.n_buckets = n_buckets
        self.max_models = max_models
        self.feature_subset = None if feature_subset is None else list(feature_subset)
        self.prefilter_fraction = prefilter_fraction
        self.random_state = random_state

        self.discretizer: EqualFrequencyDiscretizer | None = None
        self.models_: list[CategoricalClassifier] = []
        self.targets_: list[int] = []
        self.feature_names_: list[str] | None = None
        self.baseline_: np.ndarray | None = None  #: per-sub-model normal p_true
        self._keep_cols: dict[int, np.ndarray] | None = None  #: target -> column gather

    # ------------------------------------------------------------------
    # Algorithm 1: training procedure
    # ------------------------------------------------------------------
    def fit(self, X_normal: np.ndarray, feature_names: Sequence[str] | None = None) -> "CrossFeatureModel":
        """Train all sub-models on normal feature vectors (raw values)."""
        X_normal = np.asarray(X_normal, dtype=float)
        if X_normal.ndim != 2:
            raise ValueError("X_normal must be 2-D")
        if self.feature_subset is not None:
            X_normal = X_normal[:, self.feature_subset]
            if feature_names is not None:
                feature_names = [feature_names[j] for j in self.feature_subset]
        if X_normal.shape[1] < 2:
            raise ValueError("cross-feature analysis needs at least 2 features")
        self.feature_names_ = list(feature_names) if feature_names is not None else None

        self.discretizer = EqualFrequencyDiscretizer(
            n_buckets=self.n_buckets,
            prefilter_fraction=self.prefilter_fraction,
            random_state=self.random_state,
        )
        codes = self.discretizer.fit_transform(X_normal)

        n_features = codes.shape[1]
        targets = list(range(n_features))
        if self.max_models is not None and self.max_models < n_features:
            rng = np.random.default_rng(self.random_state)
            targets = sorted(rng.choice(n_features, size=self.max_models, replace=False))

        # Shared-pass training: when every sub-model can consume
        # precomputed root tables (C4.5 and NBC can), discretized codes
        # are scanned once — the pairwise contingency tensor plus
        # keep-index gathers replace L per-sub-model histogram passes
        # and np.delete copies.  Handed-off statistics are integer
        # counts, so the fitted sub-models are identical either way;
        # REPRO_FAST_FIT=0 forces the reference per-sub-model loop.
        shared = (
            _fast_fit_enabled()
            and getattr(self.classifier_factory(), "accepts_root_tables", False)
        )
        ctx = _SharedFitContext(codes, targets) if shared else None

        self.models_ = []
        for i in targets:
            model = self.classifier_factory()
            if ctx is not None:
                model.fit(ctx.others(i), codes[:, i], root_tables=ctx.root_tables(i))
            else:
                model.fit(np.delete(codes, i, axis=1), codes[:, i])
            self.models_.append(model)
        self.targets_ = [int(i) for i in targets]
        self._keep_cols = ctx.keep if ctx is not None else _keep_indices(
            codes.shape[1], self.targets_
        )
        return self

    def _keep_columns(self, n_features: int) -> dict[int, np.ndarray]:
        """Per-target keep-index gathers (rebuilt lazily, e.g. after unpickling)."""
        keep = self._keep_cols if hasattr(self, "_keep_cols") else None
        if keep is None or any(len(v) != n_features - 1 for v in keep.values()):
            keep = _keep_indices(n_features, self.targets_)
            self._keep_cols = keep
        return keep

    # ------------------------------------------------------------------
    # Algorithms 2 & 3: test procedures
    # ------------------------------------------------------------------
    def _sub_model_outputs(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-event, per-sub-model (match, p_true) matrices."""
        if self.discretizer is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if self.feature_subset is not None:
            X = X[:, self.feature_subset]
        codes = self.discretizer.transform(X)
        n = len(codes)
        matches = np.zeros((n, len(self.models_)))
        p_true = np.zeros((n, len(self.models_)))
        rows = np.arange(n)
        keep = self._keep_columns(codes.shape[1])

        for m, (model, i) in enumerate(zip(self.models_, self.targets_)):
            true = codes[:, i]
            proba = model.predict_proba(codes[:, keep[i]])
            matches[:, m] = np.argmax(proba, axis=1) == true
            # A bucket the sub-model never saw in normal training data
            # has probability zero by definition: rows start zeroed, and
            # out-of-range buckets can never equal a predicted class, so
            # only in-range rows need a probability written.
            in_range = true < proba.shape[1]
            p_true[in_range, m] = proba[rows[in_range], true[in_range]]
        return matches, p_true

    def calibrate(self, X_normal: np.ndarray) -> np.ndarray:
        """Measure each sub-model's baseline probability on held-out normal
        data (required for ``method="calibrated_probability"``).

        Returns the per-sub-model baselines (mean probability of the true
        feature value).
        """
        _, p_true = self._sub_model_outputs(X_normal)
        self.baseline_ = p_true.mean(axis=0)
        return self.baseline_

    #: Floors for the calibrated score: baselines below ``_MIN_BASELINE``
    #: are clamped (a sub-model that is wrong most of the time on normal
    #: data cannot be "failed" meaningfully), and calibrated values below
    #: ``_GEO_FLOOR`` are clamped so a single zero-probability sub-model
    #: cannot zero the pooled score by itself.
    _MIN_BASELINE = 0.05
    _GEO_FLOOR = 0.01

    def normality_score(self, X: np.ndarray, method: str = "avg_probability") -> np.ndarray:
        """Per-event score; higher = more normal.

        ``method`` is ``"avg_probability"`` (Algorithm 3),
        ``"match_count"`` (Algorithm 2) or ``"calibrated_probability"``
        (baseline-calibrated geometric pooling; requires :meth:`calibrate`).
        """
        matches, p_true = self._sub_model_outputs(X)
        if method == "avg_probability":
            return average_probability(p_true)
        if method == "match_count":
            return average_match_count(matches)
        if method == "calibrated_probability":
            if self.baseline_ is None:
                raise RuntimeError(
                    "calibrated_probability requires calibrate() on held-out normal data"
                )
            calibrated = np.minimum(
                p_true / np.maximum(self.baseline_, self._MIN_BASELINE), 1.0
            )
            return np.exp(
                np.log(np.maximum(calibrated, self._GEO_FLOOR)).mean(axis=1)
            )
        raise ValueError(f"unknown method: {method!r}")

    def _calibrated_outputs(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(p_true, calibrated)`` sub-model matrices for ``X``.

        ``calibrated`` falls back to the raw probabilities before
        :meth:`calibrate`; one ``_sub_model_outputs`` pass covers every
        row, so batched callers (attribution over all alarming windows)
        pay one discretize + tree-walk instead of one per row.
        """
        _, p_true = self._sub_model_outputs(X)
        if self.baseline_ is not None:
            calibrated = np.minimum(
                p_true / np.maximum(self.baseline_, self._MIN_BASELINE), 1.0
            )
        else:
            calibrated = p_true
        return p_true, calibrated

    def explain_batch(self, X: np.ndarray, top_k: int = 10) -> list[list[dict]]:
        """Batched :meth:`explain`: one entry list per row of ``X``.

        All rows share a single ``_sub_model_outputs`` pass (one
        discretizer transform + one frontier-batched tree walk per
        sub-model), so explaining N alarming windows costs one scoring
        call instead of N — entry-for-entry identical to calling
        :meth:`explain` per row.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        p_true, calibrated = self._calibrated_outputs(X)
        # Stable sort so tied sub-models rank in ensemble order instead
        # of the introsort's arbitrary (input-layout-dependent) order.
        order = np.argsort(calibrated, axis=1, kind="stable")[:, :top_k]
        results: list[list[dict]] = []
        for r in range(len(X)):
            entries = []
            for m in order[r]:
                target = self.targets_[m]
                name = (
                    self.feature_names_[target]
                    if self.feature_names_ is not None
                    else target
                )
                entries.append({
                    "feature": name,
                    "target": int(target),
                    "p_true": float(p_true[r, m]),
                    "baseline": (
                        float(self.baseline_[m]) if self.baseline_ is not None else None
                    ),
                    "calibrated": float(calibrated[r, m]),
                })
            results.append(entries)
        return results

    def explain(self, x: np.ndarray, top_k: int = 10) -> list[dict]:
        """Which sub-models consider one event anomalous, and how strongly.

        The paper's §6 argues the resulting model "is fairly easy to
        comprehend and can be examined by human experts"; this is the
        examination hook.  Returns the ``top_k`` sub-models with the
        lowest probability for the event's observed feature value
        (calibrated against their normal baseline when available),
        most-anomalous first.

        Each entry has ``feature`` (name or index), ``target`` (the
        labelled feature's column index in the feature vector — always
        present, so entries join back to the vector and its discretizer
        buckets even when names are set), ``p_true`` (the sub-model's
        probability for the observed bucket), ``baseline`` (its typical
        probability on held-out normal data, None before
        :meth:`calibrate`) and ``calibrated`` (their floored ratio).
        Use :meth:`explain_batch` for many events at once.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if len(x) != 1:
            raise ValueError("explain() takes exactly one event")
        return self.explain_batch(x, top_k=top_k)[0]

    @property
    def n_models(self) -> int:
        return len(self.models_)


class CrossFeatureDetector:
    """Cross-feature model + decision threshold = normal/anomaly labels.

    Parameters are forwarded to :class:`CrossFeatureModel`; the threshold
    is chosen on the training scores (or a held-out normal set passed to
    :meth:`calibrate`) at ``false_alarm_rate``.
    """

    def __init__(
        self,
        classifier_factory: ClassifierFactory = C45Classifier,
        method: str = "avg_probability",
        false_alarm_rate: float = 0.02,
        calibration_fraction: float = 0.25,
        **model_kwargs,
    ):
        self.model = CrossFeatureModel(classifier_factory=classifier_factory, **model_kwargs)
        self.method = method
        self.false_alarm_rate = false_alarm_rate
        if not 0.0 < calibration_fraction < 1.0:
            raise ValueError("calibration_fraction must be in (0, 1)")
        self.calibration_fraction = calibration_fraction
        self.threshold_: float | None = None

    def fit(
        self,
        X_normal: np.ndarray,
        feature_names: Sequence[str] | None = None,
        calibration_X: np.ndarray | None = None,
    ) -> "CrossFeatureDetector":
        """Train on normal data; calibrate baselines and the threshold.

        ``calibration_X`` (more normal data, ideally a held-out trace) is
        used for calibration when given.  Otherwise the *last*
        ``calibration_fraction`` block of ``X_normal`` is held out from
        sub-model training and used for calibration — a temporal block
        rather than a random split, because adjacent windows share their
        long sampling windows and a random split would leak.
        """
        X_normal = np.asarray(X_normal, dtype=float)
        if calibration_X is not None:
            train_X = X_normal
            calib_X = np.asarray(calibration_X, dtype=float)
        else:
            cut = int(len(X_normal) * (1.0 - self.calibration_fraction))
            cut = max(min(cut, len(X_normal) - 1), 1)
            train_X, calib_X = X_normal[:cut], X_normal[cut:]
        self.model.fit(train_X, feature_names)
        self.calibrate(calib_X)
        return self

    def calibrate(self, X_normal: np.ndarray) -> float:
        """(Re)compute sub-model baselines and the decision threshold on
        known-normal data."""
        self.model.calibrate(X_normal)
        scores = self.model.normality_score(X_normal, self.method)
        self.threshold_ = select_threshold(scores, self.false_alarm_rate)
        return self.threshold_

    def score(self, X: np.ndarray) -> np.ndarray:
        """Normality scores under the detector's configured method."""
        return self.model.normality_score(X, self.method)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """True = anomaly (score below the threshold)."""
        if self.threshold_ is None:
            raise RuntimeError("detector is not fitted")
        return self.score(X) < self.threshold_

    def explain(self, x: np.ndarray, top_k: int = 10) -> list[dict]:
        """Per-sub-model anomaly attribution for one event (see
        :meth:`CrossFeatureModel.explain`)."""
        return self.model.explain(x, top_k=top_k)

    def explain_batch(self, X: np.ndarray, top_k: int = 10) -> list[list[dict]]:
        """Batched anomaly attribution, one entry list per row (see
        :meth:`CrossFeatureModel.explain_batch`)."""
        return self.model.explain_batch(X, top_k=top_k)
