"""Config loading, validation, and store construction."""

import dataclasses
import json
import os

import numpy as np
import pytest

from paraplag.classify import ClassifierSpec, FeatureParams
from paraplag.config import (
    ConfigError,
    EngineConfig,
    MissingResource,
    build_stores,
    classifier_spec,
    feature_params,
    gst_params,
    load_config,
    prep_config,
    validate_resources,
)
from paraplag.gst import GstParams
from paraplag.textprep import preprocess_passage

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestEngineConfig:
    def test_empty_dict_is_valid(self):
        cfg = EngineConfig.from_dict({})
        assert cfg.folds == 10
        assert cfg.classifier == "knn"
        assert cfg.embed_min == 0.6
        assert cfg.gst_min_tile == 10

    def test_defaults(self):
        cfg = EngineConfig()
        assert dataclasses.asdict(cfg) == {
            "lexdb_dir": None, "ic_file": None, "embedding_file": None,
            "embedding_format": "text", "stopword_file": None,
            "embed_min": 0.6, "resnik_min": 3.0,
            "discard_semantic": 0.3, "discard_syntactic": 0.3, "discard_insdel": 0.3,
            "gst_min_tile": 10, "gst_threshold": 0.15,
            "gst_max_chars": 50_000,
            "classifier": "knn", "knn_k": 5, "folds": 10, "seed": 0,
            "fallback_threshold": 0.5,
        }
        # the keys that feed a parameter type default to that type's defaults
        assert feature_params(cfg) == FeatureParams()
        assert gst_params(cfg) == GstParams()
        assert classifier_spec(cfg) == ClassifierSpec(kind="knn")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="embedmin"):
            EngineConfig.from_dict({"embedmin": 0.5})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict([1, 2])

    def test_bad_embedding_format(self):
        with pytest.raises(ConfigError):
            EngineConfig(embedding_format="word2vec")

    def test_bad_classifier(self):
        with pytest.raises(ConfigError):
            EngineConfig(classifier="svm")

    def test_folds_lower_bound(self):
        with pytest.raises(ConfigError):
            EngineConfig(folds=1)

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigError):
            EngineConfig(seed=1.5)

    def test_fallback_threshold_range(self):
        with pytest.raises(ConfigError):
            EngineConfig(fallback_threshold=1.5)

    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan"), float("inf")])
    def test_gst_threshold_range(self, value):
        with pytest.raises(ConfigError, match="gst_threshold must be within"):
            EngineConfig(gst_threshold=value)

    def test_threshold_ranges_checked_at_construction(self):
        # out-of-range values surface as ConfigError, not later ValueError
        with pytest.raises(ConfigError):
            EngineConfig(embed_min=1.5)
        with pytest.raises(ConfigError):
            EngineConfig(discard_semantic=-0.1)
        with pytest.raises(ConfigError, match="^min_tile must be >= 1, got 0$"):
            EngineConfig(gst_min_tile=0)
        with pytest.raises(ConfigError):
            EngineConfig(knn_k=0)

    @pytest.mark.parametrize("key", ["gst_min_tile", "gst_max_chars", "knn_k", "folds", "seed"])
    @pytest.mark.parametrize("value", [5.5, 6.0, True, "6"])
    def test_integer_fields_reject_non_integers(self, key, value):
        # 5.5 used to act as 6 for a tiling length and crash evaluate for knn_k
        with pytest.raises(ConfigError, match=key):
            EngineConfig.from_dict({key: value})

    @pytest.mark.parametrize(
        "key",
        ["embed_min", "resnik_min", "discard_semantic", "discard_syntactic", "discard_insdel",
         "gst_threshold", "fallback_threshold"],
    )
    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
    def test_float_fields_reject_non_numbers(self, key, value):
        # true used to act as 1.0; a string or null failed with a message naming no key
        with pytest.raises(ConfigError) as info:
            EngineConfig.from_dict({key: value})
        assert str(info.value) == f"{key} must be a number, got {value!r}"

    @pytest.mark.parametrize("key", ["lexdb_dir", "ic_file", "embedding_file", "stopword_file"])
    @pytest.mark.parametrize("value", [5, True, 1.5, ["a"], {"path": "a"}])
    def test_path_fields_reject_non_strings(self, key, value):
        # an integer path used to reach os.path.isdir as a file descriptor
        with pytest.raises(ConfigError) as info:
            EngineConfig.from_dict({key: value})
        assert str(info.value) == f"{key} must be a string or null, got {value!r}"

    def test_float_fields_accept_integers(self):
        cfg = EngineConfig.from_dict({"embed_min": 1, "resnik_min": 3, "gst_threshold": 0})
        assert feature_params(cfg).sem.embed_min == 1
        assert cfg.gst_threshold == 0

    def test_numpy_integers_accepted(self):
        cfg = EngineConfig(gst_min_tile=np.int64(4), knn_k=np.int32(3))
        assert gst_params(cfg).min_tile == 4
        assert classifier_spec(cfg).knn_k == 3

    def test_replace_revalidates(self):
        cfg = EngineConfig()
        assert dataclasses.replace(cfg, seed=9).seed == 9
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, classifier="forest")

    def test_round_trip(self):
        cfg = EngineConfig(embed_min=0.7, classifier="nb", seed=4)
        assert EngineConfig.from_dict(dataclasses.asdict(cfg)) == cfg


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = write_config(tmp_path, {"seed": 12, "knn_k": 3})
        cfg = load_config(path)
        assert cfg.seed == 12 and cfg.knn_k == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("\ufeff" + json.dumps({"seed": 12}), encoding="utf-8")
        assert load_config(path).seed == 12

    @pytest.mark.parametrize("text", ['{"seed": 1, "seed": 2}', '{"seed": 1, "folds": 3, "seed": 1}'])
    def test_a_repeated_key_names_the_file_and_the_key(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"config {path} gives key 'seed' twice"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)


class TestDerivedParams:
    def test_feature_params_mapping(self):
        cfg = EngineConfig(embed_min=0.7, resnik_min=2.5, discard_syntactic=0.4)
        p = feature_params(cfg)
        assert p.sem.embed_min == 0.7
        assert p.sem.resnik_min == 2.5
        assert p.discard_syntactic == 0.4
        assert p.discard_semantic == 0.3

    def test_gst_params_mapping(self):
        cfg = EngineConfig(gst_min_tile=6, gst_max_chars=90)
        g = gst_params(cfg)
        assert (g.min_tile, g.max_chars) == (6, 90)

    def test_classifier_spec_mapping(self):
        assert classifier_spec(EngineConfig(classifier="nb")) == ClassifierSpec(kind="nb")
        assert classifier_spec(EngineConfig(knn_k=7)).knn_k == 7


class TestParamTypes:
    @pytest.mark.parametrize("name", ["min_tile", "max_chars"])
    @pytest.mark.parametrize("value", [5.5, 10.0, True, None])
    def test_gst_params_reject_non_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            GstParams(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, None])
    def test_classifier_spec_rejects_non_integer_k(self, value):
        with pytest.raises(ValueError, match="knn_k"):
            ClassifierSpec(kind="knn", knn_k=value)


class TestResources:
    def test_no_paths_is_fine(self):
        validate_resources(EngineConfig())  # does not raise
        stores = build_stores(EngineConfig())
        assert stores.lexdb is None and stores.ic is None and stores.embeddings is None

    def test_missing_lexdb_dir(self, tmp_path):
        cfg = EngineConfig(lexdb_dir=str(tmp_path / "nowhere"))
        with pytest.raises(MissingResource, match="lexdb_dir"):
            validate_resources(cfg)

    def test_missing_files_listed_together(self, tmp_path):
        cfg = EngineConfig(
            ic_file=str(tmp_path / "a.dat"), embedding_file=str(tmp_path / "b.vec")
        )
        with pytest.raises(MissingResource) as err:
            validate_resources(cfg)
        assert "ic_file" in str(err.value) and "embedding_file" in str(err.value)

    def test_build_stores_loads_everything(self, tmp_path):
        ic = tmp_path / "ic.dat"
        ic.write_text("wnver::1\n1740n 1000.0 ROOT\n2084071n 135.335283237\n")
        emb = tmp_path / "emb.vec"
        emb.write_text("2 3\ncat 1.0 0.0 0.0\ndog 0.0 1.0 0.0\n")
        cfg = EngineConfig(
            lexdb_dir=os.path.join(FIXTURES, "lexdb"),
            ic_file=str(ic),
            embedding_file=str(emb),
        )
        stores = build_stores(cfg)
        assert stores.lexdb is not None and stores.lexdb.synset((2084071, "n"))
        assert stores.ic is not None
        assert stores.embeddings is not None and "cat" in stores.embeddings


class TestPrepConfig:
    def test_default_uses_builtin_stopwords(self):
        prep = prep_config(EngineConfig())
        sents = preprocess_passage("The cat sat on the mat.", prep)
        assert [t.normalized for t in sents[0].content_tokens] == ["cat", "sat", "mat"]

    def test_custom_stopword_file(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("cat\nmat\n", encoding="utf-8")
        prep = prep_config(EngineConfig(stopword_file=str(stop)))
        sents = preprocess_passage("The cat sat on the mat.", prep)
        normalized = [t.normalized for t in sents[0].content_tokens]
        assert "cat" not in normalized and "the" in normalized
