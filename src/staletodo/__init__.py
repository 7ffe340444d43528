"""staletodo: find TODO comments whose task was done but never cleaned up.

The pipeline mines commit histories into ⟨code_change, todo_comment,
commit_msg⟩ triples, labels them by where the TODO sits in the diff,
trains a three-encoder classifier against four heuristic baselines, and
scans live repositories for TODOs that were resolved but left behind.
"""

from .comments import (
    Language,
    TodoComment,
    associate,
    carve_code_change,
    extract_comments,
    single_todo_filter,
)
from .corpus import (
    DatasetSplit,
    Label,
    TripleSample,
    build_triples,
    label_triple,
    read_corpus,
    sample_for_manual_check,
    split_dataset,
    write_corpus,
)
from .diffs import (
    DiffDocument,
    DiffLine,
    LineKind,
    MalformedDiff,
    RawCommit,
    normalize_diff,
    normalize_message,
    parse_unified_diff,
)
from .metrics import Confusion, MetricReport, Status, confusion, evaluate, metrics

__version__ = "0.1.0"
