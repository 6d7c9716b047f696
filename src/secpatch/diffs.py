"""Unified diff parsing into hunks with tagged lines, plus a structure-preserving serializer."""

import re
from dataclasses import dataclass
from enum import Enum

HUNK_HEADER_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
GIT_HEADER_RE = re.compile(r"^diff --git a/(?P<a>.+?) b/(?P<b>.+)$")
NEW_FILE_RE = re.compile(r"^\+\+\+ (?:b/)?(?P<path>.+?)\s*$")


class MalformedDiff(ValueError):
    """A hunk header is unparseable or its body contradicts the declared counts."""


class LineTag(Enum):
    CONTEXT = "context"
    ADDED = "added"
    REMOVED = "removed"


@dataclass(frozen=True)
class Hunk:
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: tuple[tuple[LineTag, str], ...]

    def __post_init__(self):
        if self.old_start < 0 or self.new_start < 0:
            raise ValueError("hunk start positions must be >= 0")
        if self.old_count < 0 or self.new_count < 0:
            raise ValueError("hunk line counts must be >= 0")
        context = sum(1 for tag, _ in self.lines if tag is LineTag.CONTEXT)
        removed = sum(1 for tag, _ in self.lines if tag is LineTag.REMOVED)
        added = sum(1 for tag, _ in self.lines if tag is LineTag.ADDED)
        if context + removed != self.old_count or context + added != self.new_count:
            raise ValueError(
                f"hunk body ({context} context, {added} added, {removed} removed) "
                f"contradicts header -{self.old_start},{self.old_count} "
                f"+{self.new_start},{self.new_count}"
            )

    @property
    def added_count(self) -> int:
        return sum(1 for tag, _ in self.lines if tag is LineTag.ADDED)

    @property
    def removed_count(self) -> int:
        return sum(1 for tag, _ in self.lines if tag is LineTag.REMOVED)


@dataclass(frozen=True)
class ParsedDiff:
    hunks: tuple[Hunk, ...]
    files_touched: tuple[str, ...]

    @property
    def added_count(self) -> int:
        return sum(h.added_count for h in self.hunks)

    @property
    def removed_count(self) -> int:
        return sum(h.removed_count for h in self.hunks)


def parse_unified_diff(text: str) -> ParsedDiff:
    """Parse unified diff text into hunks with tagged lines.

    Leading material (diff/index/---/+++ headers) contributes file paths or is
    skipped. Raises MalformedDiff when a hunk header cannot be parsed or the
    body does not supply exactly the declared number of old/new lines.
    """
    if not text:
        raise ValueError("diff text must be non-empty")

    lines = text.split("\n")
    hunks: list[Hunk] = []
    files: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("@@"):
            header = HUNK_HEADER_RE.match(line)
            if header is None:
                raise MalformedDiff(f"unparseable hunk header: {line!r}")
            old_start = int(header.group(1))
            old_count = int(header.group(2)) if header.group(2) is not None else 1
            new_start = int(header.group(3))
            new_count = int(header.group(4)) if header.group(4) is not None else 1
            i += 1
            body, i = _consume_hunk_body(lines, i, old_count, new_count)
            try:
                hunks.append(Hunk(old_start, old_count, new_start, new_count, tuple(body)))
            except ValueError as exc:  # the body's counts contradict the header
                raise MalformedDiff(str(exc)) from exc
            continue

        git = GIT_HEADER_RE.match(line)
        if git is not None:
            _record(files, git.group("b"))
        elif line.startswith("+++ "):
            new_file = NEW_FILE_RE.match(line)
            if new_file is not None and new_file.group("path") != "/dev/null":
                _record(files, new_file.group("path"))
        elif line.startswith(("+", "-")) and not line.startswith("--- "):
            raise MalformedDiff(f"change line outside any hunk: {line!r}")
        # other lines (git headers, "--- " old-file lines, commit message text) are ignored
        i += 1

    return ParsedDiff(tuple(hunks), tuple(files))


def _consume_hunk_body(lines, i, old_count, new_count):
    body: list[tuple[LineTag, str]] = []
    old_seen = 0
    new_seen = 0
    while old_seen < old_count or new_seen < new_count:
        if i >= len(lines):
            raise MalformedDiff(
                f"hunk body ended after {old_seen}/{old_count} old and "
                f"{new_seen}/{new_count} new lines"
            )
        line = lines[i]
        if line.startswith("\\"):  # "\ No newline at end of file" marker, not counted
            i += 1
            continue
        if line.startswith("+"):
            tag, content = LineTag.ADDED, line[1:]
            new_seen += 1
        elif line.startswith("-"):
            tag, content = LineTag.REMOVED, line[1:]
            old_seen += 1
        elif line.startswith(" ") or line == "":
            # git may strip a blank context line down to the empty string
            tag, content = LineTag.CONTEXT, line[1:]
            old_seen += 1
            new_seen += 1
        else:
            raise MalformedDiff(f"unexpected line inside hunk body: {line!r}")
        body.append((tag, content))
        i += 1
    return body, i


def _record(files: list[str], path: str) -> None:
    if path not in files:
        files.append(path)


_PREFIX = {LineTag.CONTEXT: " ", LineTag.ADDED: "+", LineTag.REMOVED: "-"}


def serialize_diff(diff: ParsedDiff) -> str:
    """Render a ParsedDiff back to unified diff text; parse(serialize(d)) == d."""
    out: list[str] = []
    for path in diff.files_touched:
        out.append(f"--- a/{path}")
        out.append(f"+++ b/{path}")
    for hunk in diff.hunks:
        out.append(f"@@ -{hunk.old_start},{hunk.old_count} +{hunk.new_start},{hunk.new_count} @@")
        for tag, content in hunk.lines:
            out.append(_PREFIX[tag] + content)
    return "\n".join(out) + "\n"
