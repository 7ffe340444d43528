"""The benchmark's tracer patches names in the program's modules; each must
exist, or a traced benchmark run stops at its first span, and each of eval's
spans must time a call, or its metric reads 0 on working code."""

from helpers import load_tracing, make_separable_corpus
from staletodo.cli import main
from staletodo.corpus import write_corpus


def test_every_traced_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _, _ in load_tracing().SPANS
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_eval_spans_time_their_calls(tmp_path, capsys):
    corpus, model = str(tmp_path / "corpus.jsonl"), str(tmp_path / "model.npz")
    write_corpus(make_separable_corpus(40, seed=7), corpus)
    argv = ["train", "--corpus", corpus, "--out", model, "--epochs", "2", "--dim", "8"]
    assert main(argv) == 0
    tracer = load_tracing().Tracer()
    with tracer.installed():
        assert main(["eval", "--corpus", corpus, "--model", model, "--baselines"]) == 0
    capsys.readouterr()
    spans = ("metrics.evaluate", "baselines.tcmo", "baselines.irsc", "storage.load_model")
    assert {span: tracer.calls[span] > 0 for span in spans} == dict.fromkeys(spans, True)
