"""Model container files and the external-embedding interchange format.

The model file is a numpy .npz archive: each parameter is a bit-exact array
under its ModelParams.arrays name, the layers' count and widths included,
and a JSON header holds only the format version, the config echo and each
encoder's vocabulary (in component order). Arrays are float32, as train
makes them, or float64, as it made them before; a model computes in the
dtype it loads with. The file holds no optimizer state, and an
external-backend model holds no vocabulary.

The header, the "meta" entry, is a 0-d bytes array of compact UTF-8 JSON:
one byte per ASCII character. Files written before hold it as a 0-d numpy
string, four bytes per character, and load the same way. A header that is
neither, is not UTF-8 or is not JSON, a missing entry, a meta entry of the
wrong type, a config field TrainConfig refuses, an array of another dtype,
an array nothing reads, a table whose width disagrees with the config's dim,
or an MLP layer that does not take the outputs of the one before it (the
first: dim times the components) or a last layer without exactly one output
raises ModelFileError.

External vectors live in a newline-delimited text file, one record per
line: a lowercase sha256 hex digest of the exact normalized text, then 768
space-separated decimal reals. Values are written with repr, so float64
round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Iterable, Mapping, Optional

import numpy as np

FORMAT_VERSION = 3
EXTERNAL_DIM = 768
PARAM_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class MissingExternalVector(KeyError):
    def __init__(self, digest: str):
        self.text_hash = digest
        super().__init__(f"no external vector for text hash {digest}")


class ModelFileError(ValueError):
    pass


class VectorFileError(ValueError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}")


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ExternalVectorStore:
    """Lookup of precomputed encoder outputs keyed by text hash."""

    def __init__(self, vectors: Optional[Mapping[str, np.ndarray]] = None):
        self._vectors: dict[str, np.ndarray] = dict(vectors or {})

    def __len__(self) -> int:
        return len(self._vectors)

    def add(self, text: str, vector: np.ndarray) -> None:
        self._vectors[text_hash(text)] = np.asarray(vector, dtype=float)

    def lookup(self, text: str) -> np.ndarray:
        digest = text_hash(text)
        try:
            return self._vectors[digest]
        except KeyError:
            raise MissingExternalVector(digest) from None

    @classmethod
    def read(cls, path: str) -> "ExternalVectorStore":
        vectors: dict[str, np.ndarray] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                fields = line.split()
                if len(fields) != 1 + EXTERNAL_DIM:
                    raise VectorFileError(
                        line_no,
                        f"expected hash + {EXTERNAL_DIM} values, got {len(fields)} fields",
                    )
                digest = fields[0].lower()
                try:
                    values = np.array([float(v) for v in fields[1:]])
                except ValueError as exc:
                    raise VectorFileError(line_no, f"bad value: {exc}") from exc
                vectors[digest] = values
        return cls(vectors)


def write_external_vectors(path: str, records: Iterable[tuple[str, np.ndarray]]) -> int:
    """Write (text, vector) pairs; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for text, vector in records:
            vector = np.asarray(vector, dtype=float)
            if vector.shape != (EXTERNAL_DIM,):
                raise ValueError(f"vector must have shape ({EXTERNAL_DIM},), got {vector.shape}")
            fh.write(text_hash(text) + " " + " ".join(repr(float(v)) for v in vector) + "\n")
            count += 1
    return count


def save_model(model, path: str) -> None:
    config = dataclasses.asdict(model.config)
    config["component_mask"] = sorted(c.value for c in config["component_mask"])
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "encoders": {c.value: list(e.vocab.tokens) for c, e in model.encoders.items()},
    }
    # A file object, not a path: np.savez would append ".npz" to a path.
    with open(path, "wb") as fh:
        np.savez(fh, meta=encode_meta(meta), **model.arrays())


def encode_meta(meta: dict) -> np.ndarray:
    """The header entry: meta as compact UTF-8 JSON in a 0-d bytes array."""
    text = json.dumps(meta, separators=(",", ":"), ensure_ascii=False)
    return np.array(text.encode("utf-8"))


def decode_meta(entry: np.ndarray):
    """The JSON value of a header entry, UTF-8 bytes or a numpy string."""
    if entry.shape != ():
        raise ModelFileError(f"model meta is not a scalar: shape {entry.shape}")
    header = entry.item()
    if isinstance(header, bytes):
        try:
            header = header.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFileError(f"model meta is not UTF-8: {exc}") from None
    elif not isinstance(header, str):
        raise ModelFileError(f"model meta is {entry.dtype}, not text or bytes")
    try:
        return json.loads(header)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"model meta is not JSON: {exc}") from None


def load_model(path: str):
    from .network import Component
    from .training import INTERNAL, ModelParams, TrainConfig
    from .vocab import make_vocab

    with np.load(path, allow_pickle=False) as archive:
        if "meta" not in archive:
            raise ModelFileError("not a model file: missing meta entry")
        try:
            entry = archive["meta"]
        except ValueError as exc:  # such as an object array, which needs pickle
            raise ModelFileError(f"model meta: {exc}") from None
        meta = decode_meta(entry)
        if not isinstance(meta, dict):
            raise ModelFileError("model meta is not an object")
        version = meta.get("format_version")
        if version == 2:
            raise ModelFileError(
                "model format 2 shares one vocabulary between the encoders and is no"
                f" longer read; retrain to write format {FORMAT_VERSION}"
            )
        if version != FORMAT_VERSION:
            raise ModelFileError(f"unsupported model format version {version!r}")
        for entry in ("config", "encoders"):
            if not isinstance(meta.get(entry, {}), dict):
                raise ModelFileError(f"model meta entry {entry!r} is not an object")
        try:
            # Extra config keys, such as those of former fields, are ignored.
            cfg = {f.name: meta["config"][f.name] for f in dataclasses.fields(TrainConfig)}
            encoder_tokens = meta["encoders"]
        except KeyError as exc:
            raise ModelFileError(f"model meta lacks {exc}") from None
        if not isinstance(cfg["component_mask"], list):
            raise ModelFileError("model config 'component_mask' is not a list")
        try:
            cfg["component_mask"] = frozenset(Component(v) for v in cfg["component_mask"])
            config = TrainConfig(**cfg)
        except ValueError as exc:  # a component, backend or field TrainConfig refuses
            raise ModelFileError(f"model config: {exc}") from None
        vocabs = {}
        for name, tokens in encoder_tokens.items():
            try:
                component = Component(name)
            except ValueError:
                raise ModelFileError(f"unknown encoder {name!r}") from None
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise ModelFileError(f"encoder {name!r}: tokens are not a list of strings")
            vocabs[component] = make_vocab(tokens)
        expected = config.active_components() if config.backend == INTERNAL else ()
        if tuple(vocabs) != expected:
            raise ModelFileError(
                f"encoders {[c.value for c in vocabs]} do not match the config's"
                f" {[c.value for c in expected]}"
            )
        arrays = {}
        for name in archive.files:
            if name == "meta":
                continue
            try:
                arrays[name] = archive[name]
            except ValueError as exc:  # such as an object array, which needs pickle
                raise ModelFileError(f"array {name!r}: {exc}") from None
            if arrays[name].dtype not in PARAM_DTYPES:
                raise ModelFileError(
                    f"array {name!r} is {arrays[name].dtype}, not float32 or float64"
                )
    try:
        model = ModelParams.from_arrays(arrays, vocabs, config)
    except KeyError as exc:
        raise ModelFileError(f"model file lacks array {exc}") from None
    unread = sorted(arrays.keys() - model.arrays().keys())
    if unread:
        raise ModelFileError(f"model file has arrays no layer or encoder reads: {unread}")
    for component, encoder in model.encoders.items():
        if encoder.embedding.shape[1:] != (config.dim,):
            raise ModelFileError(
                f"encoder {component.value!r}: table of shape {encoder.embedding.shape}"
                f" for dim {config.dim}"
            )
        if len(encoder.vocab) != encoder.embedding.shape[0]:
            raise ModelFileError(
                f"encoder {component.value!r}: {len(encoder.vocab)} vocabulary tokens"
                f" for {encoder.embedding.shape[0]} table rows"
            )
    if not model.mlp.weights:
        raise ModelFileError("model file lacks array 'mlp_w0'")
    # Each layer takes the outputs of the one before, the first the encoders'.
    inputs = config.dim * len(config.active_components())
    source = f"dim {config.dim} x {len(config.active_components())} components"
    for i, (w, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
        if w.ndim != 2 or w.shape[0] != inputs or b.shape != w.shape[1:]:
            raise ModelFileError(
                f"arrays 'mlp_w{i}' of shape {w.shape} and 'mlp_b{i}' of shape {b.shape}"
                f" for {inputs} inputs ({source})"
            )
        inputs, source = w.shape[1], f"the outputs of 'mlp_w{i}'"
    if inputs != 1:
        raise ModelFileError(f"the last MLP layer has {inputs} outputs, not 1")
    return model
