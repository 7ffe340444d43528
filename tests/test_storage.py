"""Model container round-trips and the external vector interchange file."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import make_separable_corpus, read_meta
from staletodo.corpus import read_corpus, split_dataset
from staletodo.model import (
    ExternalVectorStore,
    MissingExternalVector,
    TrainConfig,
    load_model,
    predict_scores,
    save_model,
    train,
)
from staletodo.model.storage import (
    ModelFileError,
    VectorFileError,
    encode_meta,
    text_hash,
    write_external_vectors,
)
from staletodo.model.training import parse_mask

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    corpus = make_separable_corpus(40, seed=6)
    split = split_dataset(corpus, seed=6)
    config = TrainConfig(
        dim=16, max_epochs=20, validate_every=10, min_freq=1, seed=2,
        component_mask=parse_mask("cc,td"),
    )
    model, _ = train(split, config)
    return model, split


class TestModelFile:
    def test_round_trip_bit_exact(self, trained, tmp_path):
        model, split = trained
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        loaded = load_model(path)

        assert list(loaded.encoders) == list(model.encoders)
        for component, encoder in model.encoders.items():
            assert loaded.encoders[component].vocab.tokens == encoder.vocab.tokens
        arrays = model.arrays()
        assert list(loaded.arrays()) == list(arrays)
        for name, array in loaded.arrays().items():
            assert array.dtype == arrays[name].dtype
            assert array.tobytes() == arrays[name].tobytes(), name
        assert loaded.config == model.config

    def test_loaded_model_predicts_identically(self, trained, tmp_path):
        model, split = trained
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        loaded = load_model(path)
        test = list(split.test)
        assert np.array_equal(predict_scores(test, loaded), predict_scores(test, model))

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ModelFileError):
            load_model(str(path))


def edited_model_file(model, tmp_path, edit, encode=encode_meta):
    """Save model, let edit(meta, arrays) change the file's entries, write them
    back with the meta entry encode(meta)."""
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    with np.load(path) as archive:
        meta = read_meta(archive)
        arrays = {name: archive[name] for name in archive.files if name != "meta"}
    edit(meta, arrays)
    with open(path, "wb") as fh:
        np.savez(fh, meta=encode(meta), **arrays)
    return str(path)


def former_meta(meta):
    """The meta entry as files written before held it: a 0-d numpy string,
    four bytes per character."""
    return np.array(json.dumps(meta))


class TestModelFileHeader:
    def test_header_is_one_byte_per_character_of_compact_json(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_model(trained[0], str(path))
        with np.load(path) as archive:
            header = archive["meta"]
            meta = read_meta(archive)
        json_bytes = json.dumps(meta, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        assert header.shape == ()
        assert header.dtype.kind == "S"
        assert header.nbytes == len(json_bytes)
        assert header.item() == json_bytes

    def test_former_string_header_loads_and_scores_the_same(self, trained, tmp_path):
        model, split = trained
        path = edited_model_file(model, tmp_path, lambda meta, arrays: None, former_meta)
        with np.load(path) as archive:
            assert archive["meta"].dtype.kind == "U"
        loaded = load_model(path)
        assert loaded.config == model.config
        for name, array in loaded.arrays().items():
            assert array.tobytes() == model.arrays()[name].tobytes(), name
        test = list(split.test)
        assert np.array_equal(predict_scores(test, loaded), predict_scores(test, model))

    @pytest.mark.parametrize(
        "header, named",
        [
            (np.frombuffer(b'{"format_version":3}', dtype=np.uint8), "not a scalar"),
            (np.array(3), "not text or bytes"),
            (np.array(b'{"format_version":3,"x":"\xff"}'), "not UTF-8"),
            (np.array(b'{"format_version":3'), "not JSON"),
            (np.array("format_version=3"), "not JSON"),
            (np.array({"format_version": 3}, dtype=object), "pickle"),
        ],
        ids=["1-d-uint8", "int-scalar", "not-utf8", "bytes-not-json", "string-not-json",
             "object"],
    )
    def test_malformed_header_is_a_model_file_error(self, trained, tmp_path, header, named):
        path = edited_model_file(trained[0], tmp_path, lambda meta, arrays: None,
                                 lambda meta: header)
        with pytest.raises(ModelFileError, match=named):
            load_model(path)


class TestModelFileChecks:
    def test_format_3_holds_one_vocabulary_per_encoder(self, trained, tmp_path):
        model, _ = trained
        seen = {}
        edited_model_file(model, tmp_path, lambda meta, arrays: seen.update(meta))
        assert seen["format_version"] == 3
        assert "vocab" not in seen
        assert seen["encoders"] == {
            c.value: list(e.vocab.tokens) for c, e in model.encoders.items()
        }

    def test_format_2_refused_with_retrain_hint(self, trained, tmp_path):
        def to_format_2(meta, arrays):
            meta["format_version"] = 2
            meta["vocab"] = meta["encoders"]["cc"]
            meta["encoders"] = list(meta["encoders"])

        path = edited_model_file(trained[0], tmp_path, to_format_2)
        with pytest.raises(ModelFileError, match="retrain"):
            load_model(path)

    def test_vocabulary_and_table_rows_must_agree(self, trained, tmp_path):
        def drop_token(meta, arrays):
            meta["encoders"]["td"].pop()

        path = edited_model_file(trained[0], tmp_path, drop_token)
        with pytest.raises(ModelFileError, match="'td'.*table rows"):
            load_model(path)

    def test_unknown_encoder_name_refused(self, trained, tmp_path):
        def rename(meta, arrays):
            meta["encoders"]["code"] = meta["encoders"].pop("cc")
            arrays["emb_code"] = arrays.pop("emb_cc")

        path = edited_model_file(trained[0], tmp_path, rename)
        with pytest.raises(ModelFileError, match="unknown encoder 'code'"):
            load_model(path)

    def test_encoders_must_match_the_component_mask(self, trained, tmp_path):
        def drop_td(meta, arrays):
            del meta["encoders"]["td"]
            del arrays["emb_td"]

        path = edited_model_file(trained[0], tmp_path, drop_td)
        with pytest.raises(ModelFileError, match="do not match"):
            load_model(path)


    def test_format_3_file_with_the_former_config_fields_loads(self, trained, tmp_path):
        # Each earlier format-3 file echoes the config fields of its time, in
        # their order, and stores n_layers beside the config: first while
        # max_len_* and grad_clip_norm were fields, then while hidden_sizes
        # and dropout_rate still were.
        dropout_fields = {"hidden_sizes": None, "dropout_rate": 0.2}
        formers = [
            (
                ("batch_size", "learning_rate", "grad_clip_norm", "validate_every",
                 "max_epochs", "seed", "component_mask", "backend", "dim", "min_freq",
                 "max_len_cc", "max_len_td", "max_len_msg", "hidden_sizes", "dropout_rate"),
                {"grad_clip_norm": 2.0, "max_len_cc": 200, "max_len_td": 30, "max_len_msg": 30,
                 **dropout_fields},
            ),
            (
                ("batch_size", "learning_rate", "validate_every", "max_epochs", "seed",
                 "component_mask", "backend", "dim", "min_freq", "hidden_sizes", "dropout_rate"),
                dropout_fields,
            ),
        ]
        model, split = trained
        test = list(split.test)
        for order, former in formers:

            def add_former_fields(meta, arrays):
                assert not former.keys() & meta["config"].keys()
                assert "n_layers" not in meta
                config = {**meta["config"], **former}
                edited = {
                    "format_version": meta["format_version"],
                    "config": {name: config[name] for name in order},
                    "n_layers": len(model.mlp.weights),
                    "encoders": meta["encoders"],
                }
                assert edited.keys() - {"n_layers"} == meta.keys()
                meta.clear()
                meta.update(edited)

            loaded = load_model(edited_model_file(model, tmp_path, add_former_fields))
            assert loaded.config == model.config
            assert np.array_equal(predict_scores(test, loaded), predict_scores(test, model))

    @pytest.mark.parametrize(
        "entry, named",
        [(e, e) for e in ("config", "encoders", "seed", "component_mask", "mlp_w0", "mlp_b1",
                          "emb_td")]
        # Without the last weight the layers end at mlp_w2, and mlp_b3 is left over.
        + [("mlp_w3", "mlp_b3")],
    )
    def test_missing_entry_is_a_model_file_error(self, trained, tmp_path, entry, named):
        def drop(meta, arrays):
            for holder in (meta, meta["config"], arrays):
                holder.pop(entry, None)

        path = edited_model_file(trained[0], tmp_path, drop)
        with pytest.raises(ModelFileError, match=named):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda m: m.update(config=list(m["config"].values())), "'config' is not an object"),
            (lambda m: m.update(encoders=list(m["encoders"])), "'encoders' is not an object"),
            (lambda m: m["encoders"].update(td="todo flush"), "'td': tokens are not a list of str"),
            (lambda m: m["encoders"]["cc"].__setitem__(3, 7), "'cc': tokens are not a list of str"),
            (lambda m: m["encoders"].update(td=None), "'td': tokens are not a list of str"),
        ],
        ids=["config-list", "encoders-list", "tokens-string", "token-int", "tokens-null"],
    )
    def test_meta_entry_of_the_wrong_type_is_a_model_file_error(
        self, trained, tmp_path, edit, named
    ):
        path = edited_model_file(trained[0], tmp_path, lambda meta, arrays: edit(meta))
        with pytest.raises(ModelFileError, match=named):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("component_mask", 5, "'component_mask' is not a list"),
            ("component_mask", "cc", "'component_mask' is not a list"),
            ("component_mask", [1], "1 is not a valid Component"),
            ("component_mask", [], "component_mask must not be empty"),
            ("backend", "gpu", "unknown backend 'gpu'"),
            ("dim", 7, r"'cc': table of shape \(\d+, 16\) for dim 7"),
            ("dim", "x", "dim must be an integer, got 'x'"),
            ("dim", True, "dim must be an integer, got True"),
            ("dim", 0, "dim must be at least 1, got 0"),
            ("seed", "x", "seed must be an integer, got 'x'"),
            ("seed", -1, "seed must be at least 0, got -1"),
            ("max_epochs", 2.5, "max_epochs must be an integer, got 2.5"),
            ("validate_every", None, "validate_every must be an integer, got None"),
            ("min_freq", 0, "min_freq must be at least 1, got 0"),
            ("batch_size", -3, "batch_size must be at least 1, got -3"),
            ("learning_rate", "fast", "learning_rate must be a finite number above 0"),
            ("learning_rate", 0, "learning_rate must be a finite number above 0"),
            ("learning_rate", float("nan"), "learning_rate must be a finite number above 0"),
            ("learning_rate", True, "learning_rate must be a finite number above 0"),
        ],
        ids=[
            "mask-int", "mask-string", "mask-int-member", "mask-empty", "backend-gpu",
            "dim-7", "dim-string", "dim-bool", "dim-0", "seed-string", "seed-negative",
            "epochs-float", "validate-every-null", "min-freq-0", "batch-size-negative",
            "lr-string", "lr-0", "lr-nan", "lr-bool",
        ],
    )
    def test_malformed_config_is_a_model_file_error(
        self, trained, tmp_path, field, value, named
    ):
        path = edited_model_file(
            trained[0], tmp_path, lambda meta, arrays: meta["config"].update({field: value})
        )
        with pytest.raises(ModelFileError, match=named):
            load_model(path)

    @pytest.mark.parametrize(
        "table", [np.float32(0.5), np.zeros(16, np.float32)], ids=["0-d", "1-d"]
    )
    def test_table_that_is_not_dim_wide_is_a_model_file_error(self, trained, tmp_path, table):
        def replace(meta, arrays):
            arrays["emb_td"] = np.asarray(table)

        path = edited_model_file(trained[0], tmp_path, replace)
        with pytest.raises(ModelFileError, match=r"'td': table of shape \(\d*,?\) for dim 16"):
            load_model(path)

    def test_mlp_input_must_be_dim_times_the_components(self, trained, tmp_path):
        def drop_row(meta, arrays):
            arrays["mlp_w0"] = arrays["mlp_w0"][1:]

        path = edited_model_file(trained[0], tmp_path, drop_row)
        with pytest.raises(ModelFileError, match=r"'mlp_w0' .* 32 inputs \(dim 16 x 2 comp"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda a: a.update(mlp_w1=a["mlp_w1"][1:]),
             r"'mlp_w1' of shape \((\d+), \d+\) .* for (?!\1)\d+ inputs \(the outputs of 'mlp_w0'\)"),
            (lambda a: a.update(mlp_w2=a["mlp_w2"][0]), r"'mlp_w2' of shape \(\d+,\) and"),
            (lambda a: a.update(mlp_w1=np.asarray(np.float32(0.5))), r"'mlp_w1' of shape \(\) and"),
            (lambda a: a.update(mlp_b1=a["mlp_b1"][1:]),
             r"'mlp_w1' of shape \(\d+, (\d+)\) and 'mlp_b1' of shape \((?!\1)\d+,\)"),
            (lambda a: a.update(mlp_b3=a["mlp_b3"][None]), r"'mlp_b3' of shape \(1, 1\)"),
            (lambda a: a.update(mlp_w3=np.hstack([a["mlp_w3"]] * 2), mlp_b3=np.zeros(2, "f4")),
             "the last MLP layer has 2 outputs, not 1"),
        ],
        ids=["w1-rows", "w2-1-d", "w1-0-d", "b1-short", "b3-2-d", "two-outputs"],
    )
    def test_mlp_layer_that_does_not_follow_the_one_before_is_a_model_file_error(
        self, trained, tmp_path, edit, named
    ):
        path = edited_model_file(trained[0], tmp_path, lambda meta, arrays: edit(arrays))
        with pytest.raises(ModelFileError, match=named):
            load_model(path)

    def test_meta_that_is_not_an_object_is_a_model_file_error(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_model(trained[0], str(path))
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files if name != "meta"}
        with open(path, "wb") as fh:
            np.savez(fh, meta=encode_meta([3]), **arrays)
        with pytest.raises(ModelFileError, match="meta is not an object"):
            load_model(str(path))


    @pytest.mark.parametrize(
        "dtype", [np.int64, np.float16, object], ids=["int64", "float16", "object"]
    )
    def test_array_that_is_not_float32_or_float64_is_refused(self, trained, tmp_path, dtype):
        def recast(meta, arrays):
            arrays["mlp_w1"] = arrays["mlp_w1"].astype(dtype)

        path = edited_model_file(trained[0], tmp_path, recast)
        with pytest.raises(ModelFileError, match="mlp_w1"):
            load_model(path)


class TestFloat64ModelFile:
    """A format-3 file written when training made float64 arrays.

    float64_model.npz was written by `staletodo train --corpus
    float64_model_corpus.jsonl --dim 8 --epochs 60 --validate-every 20
    --min-freq 1 --seed 3`, and float64_model_scores.json holds the scores
    predict_scores gave that model for the corpus's samples, in order.
    """

    def test_loads_as_float64_and_scores_as_written(self):
        model = load_model(str(DATA / "float64_model.npz"))
        assert {a.dtype for a in model.arrays().values()} == {np.dtype(np.float64)}
        samples = read_corpus(str(DATA / "float64_model_corpus.jsonl"))
        expected = json.loads((DATA / "float64_model_scores.json").read_text())
        assert predict_scores(samples, model).tolist() == expected


class TestTextHash:
    def test_sha256_lowercase_hex(self):
        text = "todo: flush the queue"
        assert text_hash(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert text_hash(text) == text_hash(text)
        assert text_hash(text) != text_hash(text + " ")
        digest = text_hash(text)
        assert len(digest) == 64 and digest == digest.lower()


class TestVectorFile:
    def test_round_trip_exact_floats(self, tmp_path):
        rng = np.random.default_rng(4)
        records = [
            ("todo: flush the queue", rng.normal(size=768)),
            ("+queue.flush()", rng.uniform(-1e6, 1e6, size=768)),
            ("tiny values", rng.normal(scale=1e-12, size=768)),
        ]
        path = str(tmp_path / "vectors.txt")
        assert write_external_vectors(path, records) == 3
        store = ExternalVectorStore.read(path)
        assert len(store) == 3
        for text, vector in records:
            assert np.array_equal(store.lookup(text), vector)

    def test_missing_vector_raises_with_hash(self, tmp_path):
        path = str(tmp_path / "vectors.txt")
        write_external_vectors(path, [("known", np.zeros(768))])
        store = ExternalVectorStore.read(path)
        with pytest.raises(MissingExternalVector) as exc:
            store.lookup("unknown text")
        assert exc.value.text_hash == text_hash("unknown text")

    def test_wrong_width_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_external_vectors(str(tmp_path / "bad.txt"), [("x", np.zeros(3))])

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        good = text_hash("x") + " " + " ".join(["0.0"] * 768)
        path.write_text(good + "\n" + "short line\n", encoding="utf-8")
        with pytest.raises(VectorFileError) as exc:
            ExternalVectorStore.read(str(path))
        assert exc.value.line_no == 2

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        fields = [text_hash("x")] + ["0.0"] * 767 + ["oops"]
        path.write_text(" ".join(fields) + "\n", encoding="utf-8")
        with pytest.raises(VectorFileError) as exc:
            ExternalVectorStore.read(str(path))
        assert exc.value.line_no == 1

    def test_record_format_hash_then_768_decimals(self, tmp_path):
        path = tmp_path / "vectors.txt"
        write_external_vectors(str(path), [("abc", np.arange(768.0))])
        line = path.read_text(encoding="utf-8").splitlines()[0]
        fields = line.split(" ")
        assert len(fields) == 769
        assert fields[0] == text_hash("abc")
        assert float(fields[1]) == 0.0 and float(fields[-1]) == 767.0
