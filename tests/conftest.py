"""Fixture repositories built with pinned commit metadata.

Author, committer and dates are fixed, so commit hashes are identical on
every run and golden files can assert full records.
"""

from __future__ import annotations

import pytest

from helpers import commit_all, git, init_repo


def write(repo, name, content):
    (repo / name).write_text(content, encoding="utf-8")


@pytest.fixture(scope="session")
def mining_repo(tmp_path_factory):
    """Five commits: ordinary edits, a multi-line message, a binary blob."""
    repo = init_repo(tmp_path_factory.mktemp("mining") / "mining_repo")

    write(repo, "app.py", "def main():\n    return 0\n")
    commit_all(repo, "Initial commit", 1)

    write(repo, "app.py", "def main():\n    run()\n    return 0\n")
    commit_all(repo, "Call run before returning. More detail\non a second line.", 2)

    (repo / "blob.bin").write_bytes(bytes(range(256)) * 4)
    commit_all(repo, "Add binary blob", 3)

    write(repo, "util.py", "# TODO: speed this up\ndef slow():\n    pass\n")
    commit_all(repo, "Add util with a pending task", 4)

    write(repo, "app.py", "def main():\n    run()\n    return 1\n")
    commit_all(repo, "Return 1 instead", 5)
    return repo


@pytest.fixture(scope="session")
def pipeline_repo(tmp_path_factory):
    """Ten crafted commits: 3 positives, 2 negatives, 5 ignored/skipped."""
    repo = init_repo(tmp_path_factory.mktemp("pipeline") / "fixture_repo")

    # c1: two TODOs arrive in one diff -> skipped (multiple TODOs)
    write(repo, "worker.py", "def send(msg):\n    # TODO: log the message\n    dispatch(msg)\n")
    write(
        repo,
        "cache.py",
        "entries = {}\n# TODO: evict stale entries\ndef get(key):\n    return entries.get(key)\n",
    )
    commit_all(repo, "Add worker and cache modules", 1)

    # c2: TODO removed, logging added right there -> positive
    write(repo, "worker.py", "def send(msg):\n    logging.info(msg)\n    dispatch(msg)\n")
    commit_all(repo, "Log message when sending scheduled", 2)

    # c3: code added next to an untouched TODO -> negative
    write(
        repo,
        "cache.py",
        "entries = {}\n# TODO: evict stale entries\nprune_stale(entries)\ndef get(key):\n"
        "    return entries.get(key)\n",
    )
    commit_all(repo, "Prune stale cache entries", 3)

    # c4: no TODO anywhere in the diff -> not a todo commit
    write(repo, "README.md", "fixture project\n")
    commit_all(repo, "Add readme", 4)

    # c5: a new file with two TODOs -> skipped (multiple TODOs)
    write(
        repo,
        "util.py",
        "import re\n"
        "# TODO: handle flaky retries\n"
        "def retry(op):\n"
        "    return op()\n"
        "\n"
        "\n"
        "\n"
        "\n"
        "# TODO: compile patterns once\n"
        "def find(pat, s):\n"
        "    return re.search(pat, s)\n",
    )
    commit_all(repo, "Add retry and find helpers", 5)

    # c6: a TODO comment deleted with no code change nearby -> unassociated
    write(
        repo,
        "cache.py",
        "entries = {}\nprune_stale(entries)\ndef get(key):\n    return entries.get(key)\n",
    )
    commit_all(repo, "Remove stale cache comment", 6)

    # c7: second util TODO resolved -> positive (message carries an issue id)
    write(
        repo,
        "util.py",
        "import re\n"
        "# TODO: handle flaky retries\n"
        "def retry(op):\n"
        "    return op()\n"
        "\n"
        "\n"
        "\n"
        "\n"
        "_pattern_cache = {}\n"
        "def find(pat, s):\n"
        "    return re.search(pat, s)\n",
    )
    commit_all(repo, "Cache compiled patterns for #42 speedup", 7)

    # c8: oversize diff (>1MB) containing the word todo -> rejected
    filler = "\n".join(f"padding line {i} todo none" for i in range(40000))
    write(repo, "big.txt", filler + "\n")
    commit_all(repo, "Add huge fixture file", 8)

    # c9: change beside the remaining util TODO -> negative
    write(
        repo,
        "util.py",
        "import re\n"
        "# TODO: handle flaky retries\n"
        "def retry(op):\n"
        "    return op() or None\n"
        "\n"
        "\n"
        "\n"
        "\n"
        "_pattern_cache = {}\n"
        "def find(pat, s):\n"
        "    return re.search(pat, s)\n",
    )
    commit_all(repo, "Make retry return a fallback", 9)

    # c10: first util TODO resolved -> positive
    write(
        repo,
        "util.py",
        "import re\n"
        "def retry(op):\n"
        "    for _ in range(3):\n"
        "        if op():\n"
        "            return True\n"
        "    return op() or None\n"
        "\n"
        "\n"
        "\n"
        "\n"
        "_pattern_cache = {}\n"
        "def find(pat, s):\n"
        "    return re.search(pat, s)\n",
    )
    commit_all(repo, "Add retry loop with backoff", 10)
    return repo


@pytest.fixture(scope="session")
def scan_repo(tmp_path_factory):
    """One TODO resolved but never removed, one removed only later."""
    repo = init_repo(tmp_path_factory.mktemp("scan") / "scan_repo")

    write(
        repo,
        "a.py",
        "def handle_queue():\n    # todo: flush the queue\n    queue.open()\n",
    )
    write(
        repo,
        "b.py",
        "def handle_socket():\n    # todo: retry the socket\n    socket.open()\n",
    )
    commit_all(repo, "Add queue and socket handlers", 1)

    # resolves the queue TODO, leaves the comment in place
    write(
        repo,
        "a.py",
        "def handle_queue():\n    # todo: flush the queue\n    queue.flush()\n"
        "    flush_done = true\n    queue.open()\n",
    )
    commit_all(repo, "flush the queue properly.", 2)

    # resolves the socket TODO, also leaves the comment
    write(
        repo,
        "b.py",
        "def handle_socket():\n    # todo: retry the socket\n    socket.retry()\n"
        "    retry_done = true\n    socket.open()\n",
    )
    commit_all(repo, "retry the socket properly.", 3)

    # a later commit cleans up only the socket comment
    write(
        repo,
        "b.py",
        "def handle_socket():\n    socket.retry()\n    retry_done = true\n    socket.open()\n",
    )
    commit_all(repo, "tidy old comments", 4)
    return repo


@pytest.fixture
def broken_repo(tmp_path):
    """Three commits resolving a TODO, whose middle blob's loose object is
    deleted: git log -p fails on it. Returns the repository and that blob."""
    repo = init_repo(tmp_path / "broken_repo")
    for serial in (1, 2, 3):
        write(repo, "a.py", f"# todo: bump x\nx = {serial}\n")
        commit_all(repo, f"bump x to {serial}.", serial)
    blob = git(repo, "rev-parse", "HEAD~1:a.py").strip()
    (repo / ".git" / "objects" / blob[:2] / blob[2:]).unlink()
    return repo, blob
