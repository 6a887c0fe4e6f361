import json
import re

import numpy as np
import pytest

from interdiv import dataset, gbt, idboost, losses, relevance
from interdiv.errors import InputError, UndefinedMetricError, ValidationError


@pytest.fixture(scope="module")
def trained():
    ds = dataset.synth_biased(300, seed=2)
    phi = relevance.from_boxplot(ds.targets)
    params = gbt.BoostParams(n_rounds=8, max_depth=3, l2_lambda=1e-6, seed=2)
    model = idboost.fit(ds, phi, params, w=0.5)
    return ds, phi, params, model


class TestFit:
    def test_w_one_equals_standalone_divergence_ensemble(self, trained):
        ds, phi, params, model = trained
        standalone = gbt.fit(ds, losses.IdLossObjective(ds, phi), params)
        m1 = idboost.IdBoostModel(model.id_ensemble, model.sera_ensemble, w=1.0)
        assert np.array_equal(m1.predict(ds.features), standalone.predict(ds.features))

    def test_w_zero_equals_standalone_sera_ensemble(self, trained):
        ds, phi, params, model = trained
        standalone = gbt.fit(ds, losses.SeraObjective(ds, phi), params)
        m0 = idboost.IdBoostModel(model.id_ensemble, model.sera_ensemble, w=0.0)
        assert np.array_equal(m0.predict(ds.features), standalone.predict(ds.features))

    def test_half_weight_mixes_elementwise(self, trained):
        ds, _, _, model = trained
        mixed = model.predict(ds.features)
        expected = 0.5 * model.id_ensemble.predict(ds.features) + 0.5 * (
            model.sera_ensemble.predict(ds.features)
        )
        assert np.allclose(mixed, expected, atol=1e-12)

    def test_records_both_traces(self, trained):
        _, _, params, model = trained
        assert len(model.id_ensemble.train_trace) == params.n_rounds + 1
        assert len(model.sera_ensemble.train_trace) == params.n_rounds + 1

    def test_invalid_weight_rejected(self, trained):
        ds, phi, params, _ = trained
        with pytest.raises(ValidationError):
            idboost.fit(ds, phi, params, w=1.2)

    def test_single_group_rejected(self):
        rng = np.random.default_rng(0)
        ds = dataset.from_arrays(
            rng.normal(size=(20, 2)), rng.normal(size=20), np.ones((20, 1), dtype=int)
        )
        phi = relevance.from_boxplot(ds.targets)
        with pytest.raises(UndefinedMetricError):
            idboost.fit(ds, phi, gbt.BoostParams(n_rounds=1), w=0.5)


class TestPredict:
    def test_constant_components_fixed_point(self):
        params = gbt.BoostParams(n_rounds=0)
        base = gbt.TreeEnsemble(3.0, [], params, "idloss", 2)
        other = gbt.TreeEnsemble(3.0, [], params, "sera", 2)
        for w in (0.0, 0.3, 1.0):
            model = idboost.IdBoostModel(base, other, w)
            assert np.allclose(model.predict(np.zeros((4, 2))), 3.0)

    def test_midpoint_of_two_and_four(self):
        params = gbt.BoostParams(n_rounds=0)
        a = gbt.TreeEnsemble(2.0, [], params, "idloss", 1)
        b = gbt.TreeEnsemble(4.0, [], params, "sera", 1)
        model = idboost.IdBoostModel(a, b, 0.5)
        assert np.allclose(model.predict(np.zeros((3, 1))), 3.0)

    def test_prediction_between_components(self, trained):
        ds, _, _, model = trained
        pa = model.id_ensemble.predict(ds.features)
        pb = model.sera_ensemble.predict(ds.features)
        lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            p = idboost.IdBoostModel(model.id_ensemble, model.sera_ensemble, w).predict(
                ds.features
            )
            assert np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)

    def test_affine_in_w(self, trained):
        ds, _, _, model = trained
        X = ds.features
        ws = [0.0, 0.25, 0.5, 0.75, 1.0]
        preds = {
            w: idboost.IdBoostModel(model.id_ensemble, model.sera_ensemble, w).predict(X)
            for w in ws
        }
        p0, p1 = preds[0.0], preds[1.0]
        for w in ws:
            assert np.allclose(preds[w], w * p1 + (1 - w) * p0, atol=1e-10)

    def test_mix_of_ensemble_predictions_is_predict(self, trained, rng):
        ds, _, _, model = trained
        p_id = model.id_ensemble.predict(ds.features)
        p_sera = model.sera_ensemble.predict(ds.features)
        for w in (0.0, 1.0, 0.3, *rng.uniform(size=20)):
            m = idboost.IdBoostModel(model.id_ensemble, model.sera_ensemble, float(w))
            assert m.mix(p_id, p_sera).tobytes() == m.predict(ds.features).tobytes(), w

    @pytest.mark.parametrize("w, walked", [(0.0, "sera_ensemble"), (1.0, "id_ensemble")])
    def test_end_weights_walk_one_ensemble(self, trained, monkeypatch, w, walked):
        ds, _, _, model = trained
        walks = []
        predict = gbt.TreeEnsemble.predict

        def counted(self, X):
            walks.append(self)
            return predict(self, X)

        monkeypatch.setattr(gbt.TreeEnsemble, "predict", counted)
        idboost.IdBoostModel(model.id_ensemble, model.sera_ensemble, w).predict(ds.features)
        assert len(walks) == 1 and walks[0] is getattr(model, walked)

    def test_dimension_mismatch_rejected(self, trained):
        ds, _, _, model = trained
        with pytest.raises(InputError):
            model.predict(np.zeros((3, ds.features.shape[1] + 2)))

    def test_serialization_round_trip(self, tmp_path, trained):
        ds, _, _, model = trained
        path = tmp_path / "idboost.json"
        model.to_json(path)
        loaded = idboost.load(path)
        assert loaded.w == model.w
        assert np.array_equal(loaded.predict(ds.features), model.predict(ds.features))


class TestAssemble:
    """How ``fit`` builds the dual model, and the checks it makes before any fit."""

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def fit_ensemble(*args, **kwargs):  # raised from a worker too, by fork_map
            raise AssertionError("an ensemble was fitted")

        monkeypatch.setattr(idboost, "fit_ensemble", fit_ensemble)

    def test_asks_for_idloss_then_sera(self, trained):
        ds, phi, params, _ = trained
        want = idboost.IdBoostModel(
            idboost.fit_ensemble(ds, phi, params, "idloss"),
            idboost.fit_ensemble(ds, phi, params, "sera"),
            0.25,
        )
        assert idboost.fit(ds, phi, params, 0.25).to_dict() == want.to_dict()

    def test_weight_checked_before_any_ensemble(self, trained, no_fit):
        ds, phi, params, _ = trained
        assert type(idboost.check(ds, 1)) is float
        with pytest.raises(ValidationError, match=r"w must be in \[0, 1\], got 1.5"):
            idboost.check(ds, 1.5)
        with pytest.raises(ValidationError, match=r"w must be in \[0, 1\], got 1.5"):
            idboost.fit(ds, phi, params, 1.5)

    def test_groups_checked_before_any_ensemble(self, trained, no_fit):
        ds, phi, params, _ = trained
        one_group = ds.subset(np.flatnonzero(ds.group_of == 0))
        with pytest.raises(UndefinedMetricError, match="at least 2 populated groups"):
            idboost.check(one_group, 0.5)
        with pytest.raises(UndefinedMetricError, match="at least 2 populated groups"):
            idboost.fit(one_group, phi, params, 0.5)


class TestFromDict:
    @pytest.mark.parametrize("change, message", [
        (lambda d: d.pop("w"), "idboost file lacks the key 'w'"),
        (lambda d: d.pop("sera_ensemble"), "idboost file lacks the key 'sera_ensemble'"),
        (lambda d: d.update(w="0.5"), "idboost weight w must be a JSON number, got '0.5'"),
        (lambda d: d.update(id_ensemble=[]), "an ensemble must be a JSON object, not list"),
        (lambda d: d.update(w=10 ** 400),
         "idboost weight w does not fit a float: int too large to convert to float"),
    ], ids=["no-w", "no-sera-ensemble", "w-string", "ensemble-list", "w-too-large"])
    def test_malformed_document_is_an_input_error(self, trained, change, message):
        doc = trained[3].to_dict()
        change(doc)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            idboost.IdBoostModel.from_dict(doc)


class TestLoad:
    @pytest.mark.parametrize("content, message", [
        (b"notes, not a model\n", "is not JSON"),
        (b'{"format": "\xff"}', "is not UTF-8 text"),
        (b"[1, 2]", "must hold a JSON object"),
        (b'{"format": "interdiv-other", "version": 1}', "unrecognized model format"),
    ], ids=["not-json", "not-utf8", "json-list", "unknown-format"])
    def test_bad_file_names_its_path(self, tmp_path, content, message):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(InputError, match=message) as exc:
            idboost.load(path)
        assert str(path) in str(exc.value)

    # values that BoostParams refuses, in the params of the error ensemble
    @pytest.mark.parametrize("name, value, message", [
        ("learning_rate", 0, "learning_rate must be in (0, 1]"),
        ("max_depth", 0, "max_depth must be >= 1"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("l2_lambda", float("nan"), "l2_lambda must be >= 0 and finite, got nan"),
    ], ids=["learning_rate", "max_depth", "seed", "l2_lambda"])
    def test_refused_param_names_the_file(self, trained, tmp_path, name, value, message):
        doc = trained[3].to_dict()
        doc["sera_ensemble"]["params"][name] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        want = f"model file {path} is malformed: malformed ensemble file: {message}"
        with pytest.raises(InputError, match=f"^{re.escape(want)}$"):
            idboost.load(path)

    def test_integer_of_too_many_digits_names_the_file(self, trained, tmp_path):
        # json raises Python's limit on digits of an int as a bare ValueError
        doc = dict(trained[3].to_dict(), w="w")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"w": "w"', '"w": ' + "1" * 5000))
        want = f"model file {path} cannot be read: Exceeds the limit (4300 digits)"
        with pytest.raises(InputError, match=f"^{re.escape(want)}"):
            idboost.load(path)
