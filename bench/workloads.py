"""Seeded git workloads for the benchmark, each with its own ground truth.

A workload is a git repository written as one ``git fast-import`` stream
with a pinned author and pinned dates, so the same seed always gives the
same commit hashes. Beside the repository the generator writes
``truth.json``: for every commit the files and message it wrote and the
TODO event it planted, and for every planted obsolete TODO its file, its
line at HEAD and whether a later commit removed it. The program under test
only ever sees the repository.

TODO events are planted only where their label is certain: TODO lines stay
at least ``TODO_SPACING`` lines apart, changes that carry no TODO event stay
at least ``FILLER_MARGIN`` lines away from every TODO, and each commit
carries at most one TODO event. A diff therefore never shows two TODOs.

Run ``python3 bench/workloads.py --workload deep-history --seed 1 --out DIR``
to regenerate a workload by hand.
"""

from __future__ import annotations

import argparse
import json
import keyword
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

TODO_SPACING = 12
FILLER_MARGIN = 8
HARD_SHARE = 0.05  # share of ordinary samples whose wording points the other way
UNTOUCHED = (1, 3)  # negatives per ordinary TODO, spread evenly
BASE_DATE = 1_600_000_000
AUTHOR = "Bench Author <bench@example.com>"
# With glibc's adaptive thresholds, fast-import hands its freed delta
# buffers back to the kernel and faults them in again, about 300,000 times
# per stream on some seeds and not on others: set-up took 2.3 s or 3.5 s by
# seed. Fixed thresholds keep the buffers, so set-up time follows the
# stream's size.
FAST_IMPORT_MALLOC = "glibc.malloc.mmap_threshold=67108864:glibc.malloc.trim_threshold=1073741824"

# Pseudo-words must not be keywords of either language, and must not contain
# "todo": a diff that mentions it counts as a TODO commit.
_JAVA_KEYWORDS = frozenset(
    "abstract assert boolean break byte case catch char class const continue default do "
    "double else enum extends final finally float for goto if implements import instanceof "
    "int interface long native new package private protected public return short static "
    "super switch synchronized this throw throws transient try void volatile while var "
    "true false null".split()
)
_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]

RESOLVE_VERBS = ("Implement", "Handle", "Support", "Finish", "Complete", "Resolve", "Wire up")
MAINTAIN_VERBS = ("Rename", "Reformat", "Tidy", "Reorder", "Simplify", "Adjust", "Inline", "Move")
TODO_VERBS = (
    "flush", "retry", "cache", "parse", "close", "merge", "purge", "trace", "batch", "split",
    "validate", "encode", "decode", "sort", "compress", "index", "lock", "release", "throttle",
    "stream", "buffer", "escape", "verify", "prune", "reload", "drain", "rotate", "sign",
)
TODO_TAILS = ("", "", " before returning", " on failure", " when empty", " per request", " if stale")


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload; every count is the same for every seed."""

    language: str
    files: int
    functions: tuple[int, int]
    body: tuple[int, int]
    vocab: int
    lifecycles: int  # ordinary TODOs: introduced, left untouched, then resolved or kept
    resolved_share: float
    obsolete: int  # resolved but never removed: potential findings at HEAD
    intermediate: int  # resolved, left, removed by a later commit
    pairs: int  # same TODO text in two files, each resolved and left in place
    fillers: int  # commits that plant no TODO event
    extra_files: tuple[int, int]  # files each commit edits besides its event file
    active: int  # TODO lifecycles open at once
    train_args: tuple[str, ...]


SPECS = {
    "deep-history": Spec(
        language="python", files=60, functions=(4, 7), body=(4, 7), vocab=3000,
        lifecycles=700, resolved_share=0.9, obsolete=16, intermediate=8,
        pairs=0, fillers=400, extra_files=(1, 2), active=24,
        train_args=("--dim", "32", "--epochs", "2", "--learning-rate", "0.003",
                    "--validate-every", "50"),
    ),
    "wide": Spec(
        language="java", files=650, functions=(3, 5), body=(5, 9), vocab=20000,
        lifecycles=600, resolved_share=0.9, obsolete=10, intermediate=4,
        pairs=3, fillers=200, extra_files=(1, 1), active=40,
        train_args=("--dim", "128", "--epochs", "1", "--learning-rate", "0.02",
                    "--batch-size", "64"),
    ),
}


def scaled(spec: Spec, factor: float) -> Spec:
    """A smaller workload of the same make-up, for the benchmark's tests."""
    def n(x: int, least: int = 1) -> int:
        return max(least, int(round(x * factor)))

    return replace(
        spec,
        files=n(spec.files, 4),
        vocab=n(spec.vocab, 200),
        lifecycles=n(spec.lifecycles, 20),
        obsolete=n(spec.obsolete),
        intermediate=n(spec.intermediate),
        pairs=min(spec.pairs, 1),
        fillers=n(spec.fillers),
        active=n(spec.active, 4),
    )


class Syntax:
    """Line shapes of one language; every statement line is unique."""

    def __init__(self, language: str, words: list[str], rng: random.Random):
        self.java = language == "java"
        self.words = words
        self.rng = rng
        self.indent = " " * (8 if self.java else 4)

    def word(self) -> str:
        return self.rng.choice(self.words)

    def ident(self) -> str:
        if self.rng.random() < 0.6:
            return self.word()
        if self.java:
            return self.camel(2)
        return self.word() + "_" + self.word()

    def camel(self, parts: int) -> str:
        """camelCase of several words; lowercased, it must not read "todo"."""
        while True:
            name = self.word() + "".join(self.word().capitalize() for _ in range(parts - 1))
            if "todo" not in name.lower():
                return name

    def statement(self, call: str = "") -> str:
        call = call or self.ident()
        args = ", ".join(self.ident() for _ in range(self.rng.randint(1, 3)))
        if self.rng.random() < 0.05:  # a comment delimiter inside a string literal
            args += ', "' + ("// " if self.java else "# ") + self.word() + '"'
        if self.java:
            return f"{self.indent}int {self.ident()} = {call}({args});"
        return f"{self.indent}{self.ident()} = {call}({args})"

    def resolution_call(self, verb: str, obj: str) -> str:
        return f"{obj}.{verb}" if self.java else f"{verb}_{obj}"

    def todo_line(self, text: str) -> str:
        body = "TODO: " + text
        if self.java:
            if self.rng.random() < 0.2:
                return f"{self.indent}/* {body} */"
            return f"{self.indent}// {body}"
        return f"{self.indent}# {body}"

    def is_statement(self, line: str) -> bool:
        return (
            line.startswith(self.indent)
            and not line.startswith(self.indent + " ")
            and " = " in line
            and "TODO" not in line
        )

    def new_file(self, index: int, functions: int, body: tuple[int, int]) -> tuple[str, list[str]]:
        if self.java:
            camel = self.camel(2)
            name = camel[0].upper() + camel[1:] + str(index)
            pkg = self.words[index % 12] + "/" + self.words[12 + index % 5]
            path = f"src/{pkg}/{name}.java"
            lines = [f"package {pkg.replace('/', '.')};", "", f"public class {name} {{"]
            for _ in range(functions):
                lines += ["", f"    public int {self.ident()}(int {self.word()}) {{"]
                lines += [self.statement() for _ in range(self.rng.randint(*body))]
                lines += [f"        return {self.word()};", "    }"]
            lines += ["}"]
        else:
            path = f"pkg/{self.word()}_{index}.py"
            lines = [f'"""The {self.word()} module."""', f"import {self.word()}"]
            for _ in range(functions):
                lines += ["", "", f"def {self.ident()}({self.word()}, {self.word()}):"]
                lines += [self.statement() for _ in range(self.rng.randint(*body))]
                lines += [f"    return {self.word()}"]
        return path, lines


def make_words(rng: random.Random, count: int) -> list[str]:
    seen: set[str] = set()
    words = []
    while len(words) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word in seen or "todo" in word or word in _JAVA_KEYWORDS or keyword.iskeyword(word):
            continue
        seen.add(word)
        words.append(word)
    return words


@dataclass(eq=False)
class Todo:
    text: str  # the comment text as the program lowercases it: "todo: ..."
    verb: str
    obj: str
    line: str  # the source line, unique within its file
    path: str = ""
    kind: str = "open"  # open | resolved | obsolete | intermediate | pair
    untouched: int = 0
    partner: "Todo | None" = None  # for kind "pair": the TODO with the same text


class Generator:
    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.rng = random.Random(f"{spec.language}:{seed}")
        self.syntax = Syntax(spec.language, make_words(self.rng, spec.vocab), self.rng)
        self.files: dict[str, list[str]] = {}
        self.texts: set[str] = set()
        self.commits: list[dict] = []
        self.obsolete: list[dict] = []

    # -- TODO texts and messages ---------------------------------------------
    def new_todo(self) -> Todo:
        while True:
            verb = self.rng.choice(TODO_VERBS)
            obj = self.syntax.word()
            tail = self.rng.choice(TODO_TAILS)
            raw = f"{verb} the {obj}{tail}"
            if raw not in self.texts:
                self.texts.add(raw)
                return Todo(text="todo: " + raw, verb=verb, obj=obj, line=self.syntax.todo_line(raw))

    def resolve_message(self, verb: str, obj: str) -> str:
        message = f"{self.rng.choice(RESOLVE_VERBS)} {verb} for {obj}"
        if self.rng.random() < 0.2:
            message += f" (#{self.rng.randint(10, 999)})"
        if self.rng.random() < 0.3:
            message += f".\n\nThe {self.syntax.word()} path now calls {self.syntax.ident()}."
        return message

    def maintain_message(self) -> str:
        message = f"{self.rng.choice(MAINTAIN_VERBS)} {self.syntax.ident()}"
        if self.rng.random() < 0.3:
            message += f" in {self.syntax.word()}. No behaviour change"
        return message

    # -- file edits ------------------------------------------------------------
    def todo_index(self, todo: Todo) -> int:
        return self.files[todo.path].index(todo.line)

    def _free_line(self, lines: list[str], margin: int) -> int | None:
        """A random statement line at least margin lines from every TODO."""
        todos = [t for t, line in enumerate(lines) if "TODO" in line]

        def free(i: int) -> bool:
            return self.syntax.is_statement(lines[i]) and all(abs(i - t) >= margin for t in todos)

        for _ in range(32):
            i = self.rng.randrange(len(lines))
            if free(i):
                return i
        slots = [i for i in range(len(lines)) if free(i)]
        return self.rng.choice(slots) if slots else None

    def place_todo(self, todo: Todo, candidates: list[str]) -> None:
        """Insert the TODO and a stub statement before a statement line."""
        for path in candidates:
            lines = self.files[path]
            i = self._free_line(lines, TODO_SPACING)
            if i is not None:
                lines[i:i] = [todo.line, self.syntax.statement()]
                todo.path = path
                return
        raise RuntimeError("no free slot for a TODO; the workload is too dense")

    def filler_edit(self, path: str) -> None:
        lines = self.files[path]
        i = self._free_line(lines, FILLER_MARGIN)
        if i is None:
            return
        roll = self.rng.random()
        if roll < 0.5:
            lines[i] = self.syntax.statement()
        elif roll < 0.7 or not self.syntax.is_statement(lines[i + 1]):
            lines.insert(i + 1, self.syntax.statement())
        else:
            del lines[i]

    # -- commits ---------------------------------------------------------------
    def commit(self, message: str, touched: list[str], event: str = "none",
               todo: Todo | None = None, label: str | None = None, obsolete: bool = False,
               extra: bool = True) -> int:
        if extra:
            others = [p for p in self.rng.sample(self.paths, min(len(self.paths), 4))
                      if p not in touched]
            for path in others[: self.rng.randint(*self.spec.extra_files)]:
                for _ in range(self.rng.randint(1, 2)):
                    self.filler_edit(path)
                touched.append(path)
        self.commits.append({
            "mark": len(self.commits) + 1,
            "message": message,
            "files": sorted(touched),
            "contents": {p: "\n".join(self.files[p]) + "\n" for p in touched},
            "event": event,
            "file": todo.path if todo else None,
            "todo": todo.text if todo else None,
            "label": label,
            "obsolete": obsolete,
        })
        return len(self.commits)

    def introduce(self, todo: Todo) -> None:
        taken = todo.partner.path if todo.partner else ""
        self.place_todo(todo, [p for p in self.rng.sample(self.paths, len(self.paths)) if p != taken])
        message = f"Sketch {self.syntax.ident()} with a stub for {todo.obj}"
        self.commit(message, [todo.path], "introduced", todo)

    def untouched(self, todo: Todo) -> None:
        lines = self.files[todo.path]
        t = self.todo_index(todo)
        if self.rng.random() < HARD_SHARE:
            verb, obj = self.rng.choice(TODO_VERBS), self.syntax.word()
            change = self.syntax.statement(self.syntax.resolution_call(verb, obj))
            message = self.resolve_message(verb, obj)
        else:
            change = self.syntax.statement()
            message = self.maintain_message()
        if self.rng.random() < 0.7:
            lines[t + 1] = change
        else:
            lines.insert(t + 1, change)
        self.commit(message, [todo.path], "untouched", todo, label="negative")

    def resolve(self, todo: Todo, keep_comment: bool) -> int:
        lines = self.files[todo.path]
        t = self.todo_index(todo)
        if not keep_comment and self.rng.random() < HARD_SHARE:
            change = [self.syntax.statement()]
            message = self.maintain_message()
        else:
            call = self.syntax.resolution_call(todo.verb, todo.obj)
            change = [self.syntax.statement(call), self.syntax.statement()]
            message = self.resolve_message(todo.verb, todo.obj)
        if keep_comment:
            lines[t + 1 : t + 1] = change
            return self.commit(message, [todo.path], "untouched", todo, label="negative",
                               obsolete=True)
        lines[t : t + 2] = change
        return self.commit(message, [todo.path], "resolved", todo, label="positive")

    def cleanup(self, todo: Todo) -> None:
        del self.files[todo.path][self.todo_index(todo)]
        message = f"Remove stale comments in {Path(todo.path).name}"
        self.commit(message, [todo.path], "cleanup", todo)

    # -- schedule ----------------------------------------------------------------
    def lifecycles(self) -> list[Todo]:
        spec = self.spec
        todos = []
        n_resolved = int(round(spec.lifecycles * spec.resolved_share))
        lo, hi = UNTOUCHED
        for i in range(spec.lifecycles):
            todo = self.new_todo()
            todo.kind = "resolved" if i < n_resolved else "open"
            todo.untouched = lo + i % (hi - lo + 1)
            todos.append(todo)
        for kind, count in (("obsolete", spec.obsolete), ("intermediate", spec.intermediate)):
            for i in range(count):
                todo = self.new_todo()
                todo.kind = kind
                todo.untouched = i % 2
                todos.append(todo)
        for _ in range(spec.pairs):
            first = self.new_todo()
            first.kind = "pair"
            second = replace(first, partner=first)
            first.partner = second
            todos += [first, second]
        self.rng.shuffle(todos)
        return todos

    def run(self) -> None:
        spec = self.spec
        for index in range(spec.files):
            path, lines = self.syntax.new_file(index, self.rng.randint(*spec.functions), spec.body)
            self.files[path] = lines
        self.paths = sorted(self.files)
        self.commit("Initial import", list(self.paths), extra=False)

        pending = self.lifecycles()
        steps = {}  # id(todo) -> remaining events, in order
        active: list[Todo] = []
        fillers = spec.fillers
        while pending or active or fillers:
            work = len(pending) + sum(len(steps[id(t)]) for t in active)
            if fillers and self.rng.random() < fillers / (fillers + work):
                fillers -= 1
                touched = [self.rng.choice(self.paths)]
                self.filler_edit(touched[0])
                self.commit(self.maintain_message(), touched)
                continue
            if pending and (len(active) < spec.active or not active):
                todo = pending.pop()
                events = ["untouched"] * todo.untouched
                events += {"resolved": ["resolved"], "open": [], "obsolete": ["obsolete"],
                           "pair": ["obsolete"], "intermediate": ["obsolete", "cleanup"]}[todo.kind]
                steps[id(todo)] = events
                self.introduce(todo)
                active.append(todo)
                continue
            todo = self.rng.choice(active)
            event = steps[id(todo)].pop(0)
            if event == "untouched":
                self.untouched(todo)
            elif event == "resolved":
                self.resolve(todo, keep_comment=False)
            elif event == "obsolete":
                mark = self.resolve(todo, keep_comment=True)
                self.obsolete.append({"todo": todo, "mark": mark})
            else:
                self.cleanup(todo)
            if not steps[id(todo)]:
                active.remove(todo)

    # -- output ------------------------------------------------------------------
    def stream(self) -> bytes:
        out = []
        for c in self.commits:
            message = c["message"].encode()
            date = BASE_DATE + 60 * c["mark"]
            out.append(b"commit refs/heads/main\nmark :%d\n" % c["mark"])
            for role in (b"author", b"committer"):
                out.append(b"%s %s %d +0000\n" % (role, AUTHOR.encode(), date))
            out.append(b"data %d\n%s\n" % (len(message), message))
            for path in c["files"]:
                data = c["contents"][path].encode()
                out.append(b"M 100644 inline %s\ndata %d\n%s\n" % (path.encode(), len(data), data))
        return b"".join(out)

    def truth(self, shas: dict[int, str]) -> dict:
        head_todos = []
        for path in self.paths:
            for i, line in enumerate(self.files[path], start=1):
                if "TODO" in line:
                    text = line.split("TODO", 1)[1].removesuffix("*/").strip()
                    head_todos.append({"file": path, "line": i, "text": "todo" + text.lower()})
        obsolete = []
        for entry in self.obsolete:
            todo = entry["todo"]
            lines = self.files[todo.path]
            line = lines.index(todo.line) + 1 if todo.line in lines else None
            obsolete.append({
                "file": todo.path,
                "text": todo.text,
                "commit": shas[entry["mark"]],
                "head_line": line,
                "removed": line is None,
                "shared_text": todo.kind == "pair",
            })
        commits = [
            {key: c[key] for key in ("message", "files", "event", "file", "todo", "label", "obsolete")}
            | {"commit_id": shas[c["mark"]]}
            for c in self.commits
        ]
        return {
            "language": self.spec.language,
            "head": shas[len(self.commits)],
            "commits": commits,
            "obsolete": obsolete,
            "head_todos": head_todos,
        }


def generate(spec: Spec, seed: int, out: Path) -> dict:
    """Write the repository to out/repo and its ground truth to out/truth.json."""
    gen = Generator(spec, seed)
    gen.run()
    repo = out / "repo"
    repo.mkdir(parents=True)
    subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], check=True)
    marks = out / "marks"
    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet", f"--export-marks={marks}"],
        input=gen.stream(),
        check=True,
        env=os.environ | {"GLIBC_TUNABLES": FAST_IMPORT_MALLOC},
    )
    shas = {}
    for row in marks.read_text().splitlines():
        mark, sha = row.split()
        shas[int(mark[1:])] = sha
    truth = gen.truth(shas)
    (out / "truth.json").write_text(json.dumps(truth))
    return truth


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="a directory that does not exist yet")
    args = parser.parse_args(argv)
    truth = generate(SPECS[args.workload], args.seed, Path(args.out))
    print(f"{len(truth['commits'])} commits, head {truth['head']} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
