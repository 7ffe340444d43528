"""staletodo: find TODO comments whose task was done but never cleaned up.

The pipeline mines commit histories into ⟨code_change, todo_comment,
commit_msg⟩ triples, labels them by where the TODO sits in the diff,
trains a three-encoder classifier against four heuristic baselines, and
scans live repositories for TODOs that were resolved but left behind.
Each stage lives in its own module (`staletodo.corpus`, `staletodo.model`,
`staletodo.scan` and so on); the package itself exports `Language` and
`__version__`.
"""

from .comments import Language

__version__ = "0.1.0"
