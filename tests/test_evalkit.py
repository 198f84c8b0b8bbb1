"""Metric and fold-plan tests.

Oracles: O(n²) pair counting for AUC, a fully hand-enumerated 6-point
threshold table for the operating-point metrics, published score rows for
the mean, and exhaustive properties for the round-robin fold dealer.
"""

import csv
import dataclasses
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipclass import phantom
from mipclass.errors import (
    DegenerateLabels,
    EmptyGroup,
    ManifestParse,
    SchemaMismatch,
    TooFewPatients,
)
from mipclass.evalkit import (
    BENIGN,
    LABEL_STRINGS,
    MALIGNANT,
    MANIFEST_HEADER,
    NO_LESION,
    FoldPlan,
    ManifestRow,
    MetricsReport,
    Prediction,
    confusion,
    ensemble,
    ensemble_all,
    evaluate,
    max_label,
    overall_score,
    read_manifest,
    read_predictions_csv,
    roc_auc_micro,
    sens_at_spec,
    spec_at_sens,
    stratified_kfold,
    write_manifest,
    write_predictions_csv,
)


class TestMaxLabel:
    def test_benign_malignant(self):
        assert max_label(BENIGN, MALIGNANT) == MALIGNANT

    def test_both_clear(self):
        assert max_label(NO_LESION, NO_LESION) == NO_LESION

    def test_order_irrelevant(self):
        assert max_label(MALIGNANT, NO_LESION) == MALIGNANT
        assert max_label(NO_LESION, MALIGNANT) == MALIGNANT

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            max_label(3, 0)


class TestStratifiedKFold:
    def test_two_classes_five_each(self):
        """10 patients, 5 per class, k=5: every fold gets one of each class."""
        patients = [f"p{i}" for i in range(10)]
        labels = [0] * 5 + [2] * 5
        plan = stratified_kfold(patients, labels, k=5, seed=1)
        for fold in range(5):
            members = plan.patients_in_fold(fold)
            assert len(members) == 2
            assert sorted(plan.strat_labels[p] for p in members) == [0, 2]

    def test_partition(self):
        patients = [f"p{i}" for i in range(23)]
        labels = [i % 3 for i in range(23)]
        plan = stratified_kfold(patients, labels, k=5, seed=7)
        seen = []
        for fold in range(5):
            seen.extend(plan.patients_in_fold(fold))
        assert sorted(seen) == sorted(patients)
        for fold in range(5):
            val = set(plan.patients_in_fold(fold))
            train = set(plan.training_patients(fold))
            assert val | train == set(patients)
            assert not (val & train)

    def test_per_class_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(10, 60))
            patients = [f"p{i}" for i in range(n)]
            labels = rng.integers(0, 3, n).tolist()
            k = int(rng.integers(2, 6))
            plan = stratified_kfold(patients, labels, k=k, seed=trial)
            sizes = [len(plan.patients_in_fold(f)) for f in range(k)]
            assert max(sizes) - min(sizes) <= 1
            for cls in set(labels):
                per_fold = [
                    sum(1 for p in plan.patients_in_fold(f) if plan.strat_labels[p] == cls)
                    for f in range(k)
                ]
                assert max(per_fold) - min(per_fold) <= 1

    def test_ten_study_phantom_cohort_fills_every_fold(self):
        """Small classes do not pile into the low folds: [2] * 5, not [3, 3, 2, 2, 0]."""
        labels = [max_label(*phantom.cycle_labels(i)) for i in range(10)]
        plan = stratified_kfold([f"p{i:03d}" for i in range(10)], labels, k=5, seed=0)
        assert [len(plan.patients_in_fold(f)) for f in range(5)] == [2] * 5

    @settings(max_examples=300)
    @given(
        labels=st.lists(st.integers(0, 2), min_size=2, max_size=60),
        k=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        order_seed=st.integers(0, 2**32 - 1),
    )
    def test_balance_and_determinism_property(self, labels, k, seed, order_seed):
        """Sizes within 1 overall and per class; the plan depends on nothing but
        (patients, labels, k, seed), not even the order the patients are listed in."""
        patients = [f"p{i:03d}" for i in range(len(labels))]
        if len(patients) < k:
            with pytest.raises(TooFewPatients):
                stratified_kfold(patients, labels, k=k, seed=seed)
            return
        plan = stratified_kfold(patients, labels, k=k, seed=seed)
        folds = [plan.patients_in_fold(f) for f in range(k)]
        assert sorted(p for fold in folds for p in fold) == patients
        sizes = [len(fold) for fold in folds]
        assert max(sizes) - min(sizes) <= 1
        for cls in set(labels):
            per_fold = [sum(plan.strat_labels[p] == cls for p in fold) for fold in folds]
            assert max(per_fold) - min(per_fold) <= 1
        order = np.random.default_rng(order_seed).permutation(len(patients))
        shuffled = stratified_kfold(
            [patients[i] for i in order], [labels[i] for i in order], k=k, seed=seed
        )
        assert shuffled.assignment == plan.assignment
        assert shuffled.strat_labels == plan.strat_labels

    def test_deterministic(self):
        patients = [f"p{i}" for i in range(17)]
        labels = [i % 3 for i in range(17)]
        a = stratified_kfold(patients, labels, k=5, seed=11)
        b = stratified_kfold(patients, labels, k=5, seed=11)
        assert a.assignment == b.assignment
        c = stratified_kfold(patients, labels, k=5, seed=12)
        assert a.assignment != c.assignment

    def test_too_few_patients(self):
        with pytest.raises(TooFewPatients):
            stratified_kfold(["a", "b", "c"], [0, 1, 2], k=5, seed=0)

    def test_duplicate_patients_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(["a", "a", "b", "c", "d"], [0] * 5, k=2, seed=0)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FoldPlan(k=2, assignment={"a": 5}, strat_labels={"a": 0})
        with pytest.raises(ValueError, match="no patients"):
            FoldPlan(k=3, assignment={"a": 0, "b": 2}, strat_labels={"a": 0, "b": 0})
        # a JSON true is not fold 1, nor k = 1
        with pytest.raises(ValueError, match="integer"):
            FoldPlan(k=2, assignment={"a": True, "b": 0}, strat_labels={"a": 0, "b": 1})
        with pytest.raises(ValueError, match="integer"):
            FoldPlan(k=True, assignment={"a": 0}, strat_labels={"a": 0})


def _pair_count_auc(scores, positives):
    """O(n^2) Mann–Whitney: (#concordant + ties/2) / (P*N)."""
    pos = scores[positives]
    neg = scores[~positives]
    concordant = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return (concordant + 0.5 * ties) / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        probs = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
        assert roc_auc_micro(probs, np.array([0, 1, 2])) == 1.0

    def test_all_identical_scores(self):
        probs = np.full((6, 3), 1 / 3)
        assert roc_auc_micro(probs, np.array([0, 1, 2, 0, 1, 2])) == 0.5

    def test_matches_pair_count_oracle(self):
        """200 random samples, quantized probs to force real ties."""
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(3), size=200)
        probs = np.round(probs, 2)
        truths = rng.integers(0, 3, 200)
        onehot = np.zeros_like(probs, dtype=bool)
        onehot[np.arange(200), truths] = True
        expected = _pair_count_auc(probs.ravel(), onehot.ravel())
        np.testing.assert_allclose(roc_auc_micro(probs, truths), expected, atol=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(3), size=40)
        truths = rng.integers(0, 3, 40)
        base = roc_auc_micro(probs, truths)
        # exp is strictly increasing; renormalization per row is NOT applied
        # since that would reorder pairs across rows — transform scores only
        transformed = np.exp(probs * 3.0)
        onehot = np.zeros_like(probs, dtype=bool)
        onehot[np.arange(40), truths] = True
        expected = _pair_count_auc(transformed.ravel(), onehot.ravel())
        np.testing.assert_allclose(expected, base, atol=1e-12)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_truth_rejected(self, bad):
        # a negative index would otherwise wrap around to the malignant column
        probs = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.2, 0.2, 0.6]])
        with pytest.raises(ValueError, match="class indices"):
            evaluate(probs, np.array([0, 1, 2, bad]))

    def test_non_finite_scores_rejected(self):
        probs = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [np.nan] * 3])
        with pytest.raises(ValueError, match="finite"):
            evaluate(probs, np.array([0, 1, 2, 2]))
        with pytest.raises(ValueError, match="finite"):
            sens_at_spec(np.array([0.1, np.inf]), np.array([False, True]))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateLabels):
            roc_auc_micro(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestOperatingPoints:
    # scores .1 .2 .3 .6 .8 .9 with labels 0 0 1 0 1 1; hand-enumerated:
    # thr   sens   spec
    # .1    3/3    0/3
    # .2    3/3    1/3
    # .3    3/3    2/3
    # .6    2/3    2/3
    # .8    2/3    3/3
    # .9    1/3    3/3
    # inf   0/3    3/3
    SCORES = np.array([0.1, 0.2, 0.3, 0.6, 0.8, 0.9])
    LABELS = np.array([False, False, True, False, True, True])

    def test_hand_case_floor_two_thirds(self):
        assert sens_at_spec(self.SCORES, self.LABELS, spec_floor=2 / 3) == 1.0

    def test_hand_case_floor_09(self):
        np.testing.assert_allclose(
            sens_at_spec(self.SCORES, self.LABELS, spec_floor=0.9), 2 / 3, atol=1e-15
        )

    def test_hand_case_spec_at_full_sens(self):
        np.testing.assert_allclose(
            spec_at_sens(self.SCORES, self.LABELS, sens_floor=1.0), 2 / 3, atol=1e-15
        )

    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([False, False, True, True])
        assert sens_at_spec(scores, labels) == 1.0
        assert spec_at_sens(scores, labels) == 1.0

    def test_perfect_inversion(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([False, False, True, True])
        assert sens_at_spec(scores, labels, spec_floor=0.9) == 0.0

    def test_monotone_in_floor(self):
        rng = np.random.default_rng(8)
        scores = rng.random(50)
        labels = rng.random(50) > 0.6
        floors = np.linspace(0.0, 1.0, 21)
        values = [sens_at_spec(scores, labels, f) for f in floors]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLabels):
            sens_at_spec(np.array([0.1, 0.2]), np.array([True, True]))

    def test_matches_exhaustive_oracle_on_random_sets(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(4, 40))
            scores = np.round(rng.random(n), 2)
            labels = rng.random(n) > 0.5
            if labels.all() or not labels.any():
                continue
            floor = float(rng.random())
            p, ng = int(labels.sum()), int((~labels).sum())
            best = 0.0
            for t in list(np.unique(scores)) + [np.inf]:
                pred = scores >= t
                tp = int((pred & labels).sum())
                tn = int((~pred & ~labels).sum())
                if tn / ng >= floor:
                    best = max(best, tp / p)
            assert sens_at_spec(scores, labels, floor) == best


class TestOverallScore:
    # every published triple: (auc, sens@90spec, spec@90sens) -> score
    TABLE_ROWS = [
        (0.8670, 0.6707, 0.5915, 0.7097),
        (0.8072, 0.4939, 0.4054, 0.5688),
        (0.9078, 0.7427, 0.7256, 0.7920),
        (0.8580, 0.5060, 0.6280, 0.6640),
        (0.8769, 0.6890, 0.6311, 0.7323),
        (0.7578, 0.3720, 0.3567, 0.4955),
        (0.8887, 0.7593, 0.5864, 0.7448),
        (0.8551, 0.7222, 0.4599, 0.6791),
        (0.8797, 0.7099, 0.64814, 0.7459),
        (0.8116, 0.5309, 0.4383, 0.5936),
        (0.8610, 0.6201, 0.5678, 0.6830),
    ]

    def test_published_rows(self):
        for auc, sens, spec, score in self.TABLE_ROWS:
            np.testing.assert_allclose(overall_score(auc, sens, spec), score, atol=5e-5)

    def test_perfect(self):
        assert overall_score(1.0, 1.0, 1.0) == 1.0

    def test_range_validated(self):
        with pytest.raises(ValueError):
            overall_score(1.2, 0.5, 0.5)


class TestConfusion:
    def test_all_correct_diagonal(self):
        probs = np.eye(3)[np.array([0, 1, 2, 2, 1])]
        counts = confusion(probs * 0.94 + 0.02, np.array([0, 1, 2, 2, 1]))
        assert counts[0, 0] == 1 and counts[1, 1] == 2 and counts[2, 2] == 2
        assert counts.sum() == 5
        assert np.triu(counts, 1).sum() + np.tril(counts, -1).sum() == 0

    def test_hand_tally(self):
        probs = np.array(
            [
                [0.6, 0.3, 0.1],  # pred 0, truth 0
                [0.2, 0.5, 0.3],  # pred 1, truth 0
                [0.1, 0.2, 0.7],  # pred 2, truth 1
                [0.3, 0.4, 0.3],  # pred 1, truth 1
                [0.2, 0.2, 0.6],  # pred 2, truth 2
            ]
        )
        truths = np.array([0, 0, 1, 1, 2])
        counts = confusion(probs, truths)
        expected = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        np.testing.assert_array_equal(counts, expected)

    def test_tie_goes_to_lower_index(self):
        probs = np.array([[0.4, 0.4, 0.2], [0.3, 0.35, 0.35]])
        counts = confusion(probs, np.array([2, 2]))
        assert counts[2, 0] == 1  # 0.4 tie -> class 0
        assert counts[2, 1] == 1  # 0.35 tie -> class 1

    def test_trace_is_accuracy(self):
        rng = np.random.default_rng(10)
        probs = rng.dirichlet(np.ones(3), size=60)
        truths = rng.integers(0, 3, 60)
        counts = confusion(probs, truths)
        accuracy = (probs.argmax(axis=1) == truths).mean()
        np.testing.assert_allclose(np.trace(counts) / 60, accuracy, atol=1e-15)


class TestEnsemble:
    def test_identical_members_unchanged(self):
        pred = Prediction("p", "left", np.array([0.2, 0.3, 0.5]), "m1")
        out = ensemble([pred, pred, pred])
        np.testing.assert_array_equal(out.probs, pred.probs)

    def test_hand_mean(self):
        a = Prediction("p", "left", np.array([1.0, 0.0, 0.0]), "m1")
        b = Prediction("p", "left", np.array([0.0, 1.0, 0.0]), "m2")
        np.testing.assert_array_equal(ensemble([a, b]).probs, [0.5, 0.5, 0.0])

    def test_random_members_stay_on_simplex(self):
        rng = np.random.default_rng(11)
        members = [
            Prediction("p", "right", rng.dirichlet(np.ones(3)), f"m{i}") for i in range(7)
        ]
        out = ensemble(members)
        assert abs(out.probs.sum() - 1.0) <= 1e-12
        assert out.probs.min() >= 0

    def test_order_invariant(self):
        rng = np.random.default_rng(12)
        members = [
            Prediction("p", "left", rng.dirichlet(np.ones(3)), f"m{i}") for i in range(5)
        ]
        a = ensemble(members).probs
        b = ensemble(members[::-1]).probs
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroup):
            ensemble([])

    def test_mixed_group_rejected(self):
        a = Prediction("p", "left", np.array([1.0, 0.0, 0.0]))
        b = Prediction("q", "left", np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            ensemble([a, b])

    def test_ensemble_all_groups_by_patient_side(self):
        a1 = Prediction("p", "left", np.array([1.0, 0.0, 0.0]), "m1")
        a2 = Prediction("p", "left", np.array([0.0, 0.0, 1.0]), "m2")
        b1 = Prediction("p", "right", np.array([0.0, 1.0, 0.0]), "m1")
        out = ensemble_all([a1, b1, a2])
        assert len(out) == 2
        np.testing.assert_array_equal(out[0].probs, [0.5, 0.0, 0.5])
        np.testing.assert_array_equal(out[1].probs, [0.0, 1.0, 0.0])

    def test_prediction_validation(self):
        with pytest.raises(ValueError):
            Prediction("p", "left", np.array([0.5, 0.6, 0.2]))
        with pytest.raises(ValueError):
            Prediction("p", "left", np.array([-0.1, 0.6, 0.5]))
        with pytest.raises(ValueError, match="side"):
            Prediction("p", "middle", np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            Prediction("p", "left", np.array([np.nan, np.nan, np.nan]))


class TestEvaluate:
    def test_report_fields_and_extras(self):
        rng = np.random.default_rng(13)
        probs = rng.dirichlet(np.ones(3), size=90)
        truths = rng.integers(0, 3, 90)
        report = evaluate(probs, truths)
        assert 0 <= report.auc <= 1
        assert report.n == 90
        assert report.confusion.sum() == 90
        np.testing.assert_allclose(
            report.score,
            (report.auc + report.sens_at_90spec + report.spec_at_90sens) / 3,
            atol=1e-15,
        )
        assert "sens_at_90spec_benign" in report.extras
        assert "spec_at_90sens_nolesion" in report.extras
        assert report.extras["sens_at_90spec_malignant"] == report.sens_at_90spec

    def test_headline_is_malignant_vs_rest(self):
        probs = np.array(
            [[0.1, 0.1, 0.8], [0.2, 0.2, 0.6], [0.8, 0.1, 0.1], [0.7, 0.2, 0.1]]
        )
        truths = np.array([2, 2, 0, 1])
        report = evaluate(probs, truths)
        expected = sens_at_spec(probs[:, 2], truths == 2)
        assert report.sens_at_90spec == expected

    def test_report_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            MetricsReport(
                auc=0.5,
                sens_at_90spec=0.5,
                spec_at_90sens=0.5,
                score=0.5,
                confusion=np.zeros((3, 3), dtype=np.int64),
                n=5,
            )

    def test_to_dict_roundtrips_through_json(self):
        import json

        rng = np.random.default_rng(14)
        probs = rng.dirichlet(np.ones(3), size=30)
        truths = rng.integers(0, 3, 30)
        report = evaluate(probs, truths)
        text = json.dumps(report.to_dict(), sort_keys=True)
        back = json.loads(text)
        assert back["n"] == 30
        assert np.asarray(back["confusion"]).sum() == 30


class TestPredictionsCsv:
    def test_roundtrip_and_determinism(self, tmp_path):
        rng = np.random.default_rng(15)
        preds = [
            Prediction(f"p{i % 4}", ("left", "right")[i % 2], rng.dirichlet(np.ones(3)), f"m{i % 3}")
            for i in range(12)
        ]
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_predictions_csv(preds, path_a)
        write_predictions_csv(list(reversed(preds)), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        back = read_predictions_csv(path_a)
        assert len(back) == 12
        original = {(p.patient_id, p.side, p.model_id): p.probs for p in preds}
        for p in back:
            np.testing.assert_allclose(
                p.probs, original[(p.patient_id, p.side, p.model_id)], atol=1e-15
            )

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaMismatch):
            read_predictions_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "patient_id,side,p_nolesion,p_benign,p_malignant,model_id"
        path.write_text(f"{header}\np0,left,0.2,nan?,0.3,m\n")
        with pytest.raises(SchemaMismatch):
            read_predictions_csv(path)


# field text the parser gives back as written: read_manifest strips each field,
# and splits the post paths on ";"
_FIELD = st.text(
    st.characters(min_codepoint=32, max_codepoint=0x2FF, blacklist_characters=";"),
    min_size=1,
    max_size=12,
).filter(lambda s: s == s.strip())
# a patient id is one plain file name, without DEL (ASCII's one control character here)
_PATIENT_ID = _FIELD.filter(lambda s: s not in (".", "..") and not set(s) & set("/\\\x7f"))
_ROW = st.builds(
    ManifestRow,
    patient_id=_PATIENT_ID,
    pre_path=_FIELD,
    post_paths=st.lists(_FIELD, min_size=2, max_size=4).map(tuple),
    mask_path=st.none() | _FIELD,
    label_left=st.sampled_from((NO_LESION, BENIGN, MALIGNANT)),
    label_right=st.sampled_from((NO_LESION, BENIGN, MALIGNANT)),
)
_ROWS = st.lists(_ROW, max_size=5, unique_by=lambda r: r.patient_id)

# any field text, weighted toward what the parser strips, splits or refuses
_ANY_FIELD = st.text(
    st.sampled_from("a.;/\\\0 \t\r\n,\"\x85\xa0") | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
)
# per field, any value of its type
_ANY_VALUE = {
    "patient_id": _ANY_FIELD,
    "pre_path": _ANY_FIELD,
    "post_paths": st.lists(_ANY_FIELD, max_size=3).map(tuple),
    "mask_path": st.none() | _ANY_FIELD,
    "label_left": st.integers(-1, 3),
    "label_right": st.integers(-1, 3),
}


@st.composite
def _near_row(draw) -> ManifestRow:
    """A valid row, or one with one field drawn from any value of its type."""
    row = draw(_ROW)
    name = draw(st.sampled_from([None, *_ANY_VALUE]))
    return row if name is None else dataclasses.replace(row, **{name: draw(_ANY_VALUE[name])})


def _unchecked_manifest(rows) -> str:
    """The manifest text of a writer that checks nothing."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for r in rows:
        labels = [LABEL_STRINGS[v] if 0 <= v < 3 else str(v) for v in (r.label_left, r.label_right)]
        writer.writerow([r.patient_id, r.pre_path, ";".join(r.post_paths), r.mask_path or "", *labels])
    return buffer.getvalue()


# prediction text fields, weighted toward what the CSV writer quotes or leaves bare
_PREDICTION_TEXT = st.text(st.sampled_from("p0 ,\"\r\n\0\x85") | st.characters(), max_size=4)
_PREDICTION = st.builds(
    Prediction,
    patient_id=_PREDICTION_TEXT,
    side=st.sampled_from(("right", "left")),
    probs=st.sampled_from([(1.0, 0.0, 0.0), (0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3)]).map(np.array),
    model_id=_PREDICTION_TEXT,
)


def _prediction_fields(predictions) -> list:
    return [(p.patient_id, p.side, p.probs.tolist(), p.model_id) for p in predictions]


class TestPredictionFormat:
    @settings(max_examples=300, deadline=None)
    @given(predictions=st.lists(_PREDICTION, max_size=3))
    def test_write_refuses_exactly_what_read_would(self, predictions):
        """`write_predictions_csv` writes the rows, sorted, when the reader gives
        them back from their text, and refuses them, writing nothing, when it
        would refuse that text or read other rows from it."""
        rows = sorted(predictions, key=lambda p: (p.patient_id, p.side, p.model_id))
        buffer = io.StringIO()  # the text of a writer that checks nothing
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("patient_id", "side", "p_nolesion", "p_benign", "p_malignant", "model_id"))
        for p in rows:
            writer.writerow([p.patient_id, p.side, *(f"{v:.17g}" for v in p.probs), p.model_id])
        with tempfile.TemporaryDirectory() as tmp:
            unchecked = Path(tmp) / "unchecked.csv"
            unchecked.write_text(buffer.getvalue(), encoding="utf-8", newline="")
            try:
                back = read_predictions_csv(unchecked)
                faithful = _prediction_fields(back) == _prediction_fields(rows)
            except SchemaMismatch:
                faithful = False
            path = Path(tmp) / "predictions.csv"
            if faithful:
                write_predictions_csv(predictions, path)
                assert path.read_bytes() == unchecked.read_bytes()
                assert _prediction_fields(read_predictions_csv(path)) == _prediction_fields(rows)
            else:
                with pytest.raises(SchemaMismatch, match=r"would (refuse|read back)"):
                    write_predictions_csv(predictions, path)
                assert not path.exists()

    def test_carriage_return_in_an_id_is_refused(self, tmp_path):
        """csv.writer leaves a lone \\r unquoted under a \\n line end, so the row
        would be read as two malformed rows."""
        path = tmp_path / "predictions.csv"
        bad = Prediction("p\r000", "left", np.array([1.0, 0.0, 0.0]), "m")
        refusal = r"its reader would refuse it: malformed prediction row: \['p'\]$"
        with pytest.raises(SchemaMismatch, match=refusal):
            write_predictions_csv([bad], path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "model_id, message",
        [
            ("m" * 131_073, r"line 2: field larger than field limit \(131072\)"),
            ("m\r0", r"malformed prediction row: \['0'\]"),
        ],
        ids=["model_id_over_field_limit", "carriage_return_in_model_id"],
    )
    def test_writer_refusals(self, tmp_path, model_id, message):
        """A refused write names its file and the reader's refusal, and makes
        no directory."""
        path = tmp_path / "predictions" / "m.csv"
        bad = Prediction("p0", "left", np.array([1.0, 0.0, 0.0]), model_id)
        refusal = re.escape(f"cannot write {path}: its reader would refuse it: ") + message + "$"
        with pytest.raises(SchemaMismatch, match=refusal):
            write_predictions_csv([bad], path)
        assert list(tmp_path.iterdir()) == []


class TestManifestFormat:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_near_row(), max_size=3))
    def test_write_refuses_exactly_what_read_would(self, rows):
        """`write_manifest` writes the rows when the reader gives back exactly
        these rows from their text, and refuses them, writing nothing, when it
        would refuse that text or read other rows from it."""
        with tempfile.TemporaryDirectory() as tmp:
            unchecked = Path(tmp) / "unchecked.csv"
            unchecked.write_bytes(_unchecked_manifest(rows).encode("utf-8"))
            try:
                faithful = read_manifest(unchecked) == rows
            except ManifestParse:
                faithful = False
            path = Path(tmp) / "manifest.csv"
            if faithful:
                write_manifest(rows, path)
                assert path.read_bytes() == unchecked.read_bytes()
                assert read_manifest(path) == rows
            else:
                with pytest.raises(SchemaMismatch, match=r"would (refuse|read back)"):
                    write_manifest(rows, path)
                assert not path.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            (ManifestRow("a/b", "p", ("x", "y"), None, 0, 0), "is not a plain file name"),
            (ManifestRow("a ", "p", ("x", "y"), None, 0, 0), "would read back as"),
            (ManifestRow("a", "p", ("x;z", "y"), None, 0, 0), "would read back as"),
            (ManifestRow("a", "p", ("x",), None, 0, 0), "need >= 2 post paths"),
            (ManifestRow("a", "p", ("x", "y"), None, 3, 0), "label_left must be one of"),
            (ManifestRow("a", "p", ("x", "y"), None, 0, -1), "label_right must be one of"),
            (ManifestRow("p0", "q", ("x", "y"), None, 0, 0), "duplicate patient ids: \\['p0'\\]"),
            (
                ManifestRow("p" * 131_073, "p", ("x", "y"), None, 0, 0),
                "field larger than field limit \\(131072\\)",
            ),
        ],
        ids=[
            "id_path", "edge_whitespace", "semicolon_in_path", "one_post", "label_3", "label_-1",
            "duplicate_id", "id_over_field_limit",
        ],
    )
    def test_writer_refusals(self, tmp_path, row, message):
        ok = ManifestRow("p0", "p", ("x", "y"), None, 0, 0)
        # the reader names the line it refuses; a duplicate is refused once every
        # row is read, and a read-back mismatch is of the whole table
        where = "" if "duplicate" in message or "back" in message else "line 3: .*"
        with pytest.raises(SchemaMismatch, match=f"^cannot write .*: {where}.*{message}"):
            write_manifest([ok, row], tmp_path / "manifest.csv")
        assert not (tmp_path / "manifest.csv").exists()

    @settings(max_examples=200, deadline=None)
    @given(rows=_ROWS)
    def test_write_then_read_gives_back_the_rows(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.csv"
            write_manifest(rows, path)
            assert read_manifest(path) == rows

    def test_write_makes_the_directory(self, tmp_path):
        rows = [ManifestRow("a", "pre.nii", ("b.nii", "c.nii"), None, NO_LESION, BENIGN)]
        path = tmp_path / "new" / "manifest.csv"
        write_manifest(rows, path)
        assert read_manifest(path) == rows

    def test_every_label_is_spelled_out(self, tmp_path):
        rows = [
            ManifestRow("a", "pre.nii", ("b.nii", "c.nii"), None, NO_LESION, BENIGN),
            ManifestRow("b,\"q\"", "pre.nii", ("b.nii", "c.nii"), "m.nii", MALIGNANT, NO_LESION),
        ]
        path = tmp_path / "manifest.csv"
        write_manifest(rows, path)
        assert path.read_text() == (
            "patient_id,pre_path,post_paths,mask_path,label_left,label_right\n"
            "a,pre.nii,b.nii;c.nii,,no_lesion,benign\n"
            '"b,""q""",pre.nii,b.nii;c.nii,m.nii,malignant,no_lesion\n'
        )


def _report(auc: float) -> MetricsReport:
    return MetricsReport(auc, 0.5, 0.5, 0.5, np.eye(3, dtype=np.int64), 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stratified_kfold(["a", "b"], [0]), "2 patients vs 1 labels"),
        (lambda: stratified_kfold(["a", "b"], [0, 1], k=1), "k must be >= 2, got 1"),
        (lambda: roc_auc_micro(np.full((2, 2), 0.5), np.zeros(2)),
         "probs must be (N, 3), got (2, 2)"),
        (lambda: roc_auc_micro(np.full((2, 3), 1 / 3), np.zeros(3)),
         "truths shape (3,) does not match probs"),
        (lambda: Prediction("p0", "left", np.full(2, 0.5)),
         "probs must be length 3, got shape (2,)"),
        (lambda: _report(1.5), "auc=1.5 outside [0, 1]"),
    ],
    ids=["folds_lengths", "folds_k_1", "auc_two_classes", "auc_truths_shape", "probs_two",
         "report_auc"],
)
def test_input_refusals(call, message):
    """Each input refusal's exact type and message."""
    with pytest.raises(ValueError) as refused:
        call()
    assert type(refused.value) is ValueError
    assert str(refused.value) == message
