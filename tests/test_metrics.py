"""Classification metrics against brute-force recount oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import accuracy_reference, macro_f1_reference, per_class_f1_reference

from consem.errors import ContractError, MetricError, ShapeError
from consem.metrics import (
    ConfusionMatrix,
    MetricsReport,
    PerClassScores,
    accuracy,
    macro_f1,
    mrc_accuracy,
)


class TestConfusionMatrix:
    def test_from_pairs_counts(self):
        cm = ConfusionMatrix.from_pairs(["a", "b"], golds=[0, 0, 1], preds=[0, 1, 1])
        np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 1]])
        assert cm.total == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            ConfusionMatrix.from_pairs(["a", "b"], golds=[2], preds=[0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            ConfusionMatrix.from_pairs(["a", "b"], golds=[0], preds=[0, 1])

    def test_negative_counts_rejected(self):
        with pytest.raises(MetricError):
            ConfusionMatrix(labels=["a", "b"], counts=np.array([[1, 0], [0, -1]]))


class TestAccuracy:
    def test_diagonal_matrix_is_perfect(self):
        cm = ConfusionMatrix(labels=["a", "b"], counts=np.diag([3, 4]))
        assert accuracy(cm) == 1.0

    def test_uniform_two_class_matrix(self):
        cm = ConfusionMatrix(labels=["a", "b"], counts=np.ones((2, 2), dtype=int))
        assert accuracy(cm) == 0.5

    def test_empty_matrix_rejected(self):
        with pytest.raises(MetricError):
            accuracy(ConfusionMatrix(labels=["a"]))

    def test_random_fixtures_match_recount(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 40))
            golds = rng.integers(0, k, size=n).tolist()
            preds = rng.integers(0, k, size=n).tolist()
            cm = ConfusionMatrix.from_pairs([str(i) for i in range(k)], golds, preds)
            assert accuracy(cm) == pytest.approx(accuracy_reference(golds, preds), abs=1e-9)


class TestMacroF1:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(labels=["a", "b", "c"], counts=np.diag([5, 1, 9]))
        score, per_class = macro_f1(cm)
        assert score == 1.0
        assert all(s.f1 == 1.0 for s in per_class)

    def test_absent_class_scores_zero_but_still_averaged(self):
        # Class "c" never appears as gold or prediction.
        counts = np.array([[2, 0, 0], [0, 3, 0], [0, 0, 0]])
        cm = ConfusionMatrix(labels=["a", "b", "c"], counts=counts)
        score, per_class = macro_f1(cm)
        assert per_class[2].f1 == 0.0 and per_class[2].support == 0
        assert score == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("counts,f1_sum,score", [
        ([[11, 3, 0], [9, 10, 8], [9, 10, 1]], 0.9805934242181235, 0.32686447473937447),
        ([[10, 7, 6], [3, 3, 0], [0, 0, 2]], 1.3305555555555553, 0.4435185185185184),
    ])
    def test_f1s_are_added_left_to_right(self, counts, f1_sum, score):
        # Python 3.12's compensated sum() gives 0.9805934242181233 and
        # 1.3305555555555555 here, and 0.4435185185185185 for the second score.
        got, per_class = macro_f1(ConfusionMatrix(labels=["a", "b", "c"], counts=np.array(counts)))
        assert (per_class[0].f1 + per_class[1].f1) + per_class[2].f1 == f1_sum
        assert got == score

    def test_random_fixtures_match_recount(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 40))
            golds = rng.integers(0, k, size=n).tolist()
            preds = rng.integers(0, k, size=n).tolist()
            cm = ConfusionMatrix.from_pairs([str(i) for i in range(k)], golds, preds)
            score, per_class = macro_f1(cm)
            assert score == pytest.approx(macro_f1_reference(golds, preds, k), abs=1e-9)
            for i, expected in enumerate(per_class_f1_reference(golds, preds, k)):
                assert per_class[i].f1 == pytest.approx(expected, abs=1e-9)

    @given(st.permutations(range(3)), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, perm, seed):
        rng = np.random.default_rng(seed)
        golds = rng.integers(0, 3, size=30).tolist()
        preds = rng.integers(0, 3, size=30).tolist()
        labels = ["a", "b", "c"]
        base, _ = macro_f1(ConfusionMatrix.from_pairs(labels, golds, preds))
        relabeled, _ = macro_f1(
            ConfusionMatrix.from_pairs(
                [labels[i] for i in perm],
                [perm.index(g) for g in golds],
                [perm.index(p) for p in preds],
            )
        )
        assert relabeled == pytest.approx(base, abs=1e-12)


class TestMrcAccuracy:
    def test_all_correct(self):
        assert mrc_accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_none_correct(self):
        assert mrc_accuracy([0, 1, 2], [1, 2, 0]) == 0.0

    def test_random_fixture_matches_direct_count(self):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 4, size=100).tolist()
        golds = rng.integers(0, 4, size=100).tolist()
        assert mrc_accuracy(preds, golds) == pytest.approx(
            accuracy_reference(golds, preds), abs=1e-9
        )

    def test_validation(self):
        with pytest.raises(ContractError):
            mrc_accuracy([0], [0, 1])
        with pytest.raises(MetricError):
            mrc_accuracy([], [])


class TestMetricsReport:
    def test_to_dict_round_trip(self):
        report = MetricsReport(
            accuracy=0.75,
            macro_f1=0.5,
            per_class=[PerClassScores("a", 1.0, 0.5, 2 / 3, 4)],
            mrc_accuracy=0.25,
        )
        payload = report.to_dict()
        assert payload["accuracy"] == 0.75
        assert payload["mrc_accuracy"] == 0.25
        assert payload["per_class"][0]["label"] == "a"

    def test_json_keys_and_values(self):
        per_class = [PerClassScores("a", 1.0, 0.5, 0.75, 4), PerClassScores("b", 0.0, 0.0, 0.0, 0)]
        classifier = MetricsReport(accuracy=0.5, macro_f1=0.375, per_class=per_class)
        assert json.dumps(classifier.to_dict(), sort_keys=True) == (
            '{"accuracy": 0.5, "macro_f1": 0.375, "per_class": ['
            '{"f1": 0.75, "label": "a", "precision": 1.0, "recall": 0.5, "support": 4}, '
            '{"f1": 0.0, "label": "b", "precision": 0.0, "recall": 0.0, "support": 0}]}'
        )
        mrc = MetricsReport(accuracy=0.25, macro_f1=0.25, per_class=[], mrc_accuracy=0.25)
        assert json.dumps(mrc.to_dict(), sort_keys=True) == (
            '{"accuracy": 0.25, "macro_f1": 0.25, "mrc_accuracy": 0.25, "per_class": []}'
        )

    def test_range_validation(self):
        with pytest.raises(MetricError):
            MetricsReport(accuracy=1.5, macro_f1=0.5, per_class=[])
        with pytest.raises(MetricError):
            MetricsReport(accuracy=0.5, macro_f1=-0.1, per_class=[])

    def test_mrc_field_optional(self):
        report = MetricsReport(accuracy=0.5, macro_f1=0.5, per_class=[])
        assert "mrc_accuracy" not in report.to_dict()
