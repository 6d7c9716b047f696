import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secpatch import LineTag, MalformedDiff, parse_unified_diff, serialize_diff

GIT_DIFF = """diff --git a/src/util.c b/src/util.c
index 0abc123..0def456 100644
--- a/src/util.c
+++ b/src/util.c
@@ -10,3 +10,4 @@ int frob(void)
 int a = 1;
-int b = 2;
+int b = 3;
+int c = 4;
 return a;
"""


def test_sock_fasync_patch(sock_fasync_text):
    parsed = parse_unified_diff(sock_fasync_text)
    assert len(parsed.hunks) == 3
    assert parsed.added_count == 3
    assert parsed.removed_count == 0
    assert parsed.hunks[0].old_start == 1950
    assert parsed.hunks[1].new_start == 2137
    added = [text for h in parsed.hunks for tag, text in h.lines if tag is LineTag.ADDED]
    assert all("sock_set_flag(sk, SOCK_FASYNC);" in line for line in added)


def test_minimal_single_addition():
    parsed = parse_unified_diff("@@ -1,0 +1,1 @@\n+x\n")
    assert len(parsed.hunks) == 1
    assert parsed.added_count == 1
    assert parsed.removed_count == 0
    assert parsed.hunks[0].lines == ((LineTag.ADDED, "x"),)


def test_header_contradiction_rejected():
    with pytest.raises(MalformedDiff):
        parse_unified_diff("@@ -1,0 +1,2 @@\n+x\n")


def test_excess_body_line_rejected():
    with pytest.raises(MalformedDiff):
        parse_unified_diff("@@ -1,0 +1,1 @@\n+x\n+y\n")


def test_unparseable_header_rejected():
    with pytest.raises(MalformedDiff, match="header"):
        parse_unified_diff("@@ nonsense @@\n+x\n")


def test_change_line_outside_hunk_rejected():
    with pytest.raises(MalformedDiff, match="outside"):
        parse_unified_diff("+stray addition\n")


def test_empty_text_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        parse_unified_diff("")


def test_git_headers_recorded():
    parsed = parse_unified_diff(GIT_DIFF)
    assert parsed.files_touched == ("src/util.c",)
    assert len(parsed.hunks) == 1
    assert parsed.hunks[0].added_count == 2
    assert parsed.hunks[0].removed_count == 1


_BARE_HUNK = "@@ -1,2 +1,2 @@\n keep\n-old\n+new\n"


@pytest.mark.parametrize("header", [
    "index 83db48f..bf269f4 100644", "old mode 100644", "new mode 100755",
    "new file mode 100644", "deleted file mode 100644", "similarity index 87%",
    "rename from src/a.c", "rename to src/b.c", "copy from src/a.c", "copy to src/b.c",
    "Binary files a/logo.png and b/logo.png differ", "--- a/x",
])
def test_git_header_before_hunk_parses_like_bare_hunk(header):
    assert parse_unified_diff(f"{header}\n{_BARE_HUNK}") == parse_unified_diff(_BARE_HUNK)


def test_header_without_counts_defaults_to_one():
    parsed = parse_unified_diff("@@ -3 +3 @@\n-x\n+y\n")
    hunk = parsed.hunks[0]
    assert (hunk.old_count, hunk.new_count) == (1, 1)


def test_no_newline_marker_skipped():
    parsed = parse_unified_diff("@@ -1,1 +1,1 @@\n-x\n\\ No newline at end of file\n+y\n")
    assert parsed.hunks[0].added_count == 1


@pytest.mark.parametrize("text", [GIT_DIFF, "@@ -1,0 +1,1 @@\n+x\n"])
def test_round_trip_fixed_point(text, sock_fasync_text):
    for candidate in (text, sock_fasync_text):
        parsed = parse_unified_diff(candidate)
        assert parse_unified_diff(serialize_diff(parsed)) == parsed


_line_text = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\n\r"), max_size=20)


@st.composite
def _hunks_text(draw):
    n_hunks = draw(st.integers(1, 3))
    parts = []
    for _ in range(n_hunks):
        body = draw(st.lists(
            st.tuples(st.sampled_from(" +-"), _line_text), min_size=1, max_size=8))
        old = sum(1 for tag, _ in body if tag in " -")
        new = sum(1 for tag, _ in body if tag in " +")
        old_start = draw(st.integers(0, 500))
        new_start = draw(st.integers(0, 500))
        parts.append(f"@@ -{old_start},{old} +{new_start},{new} @@")
        parts.extend(tag + text for tag, text in body)
    return "\n".join(parts) + "\n"


@given(_hunks_text())
@settings(max_examples=60)
def test_round_trip_fixed_point_generated(text):
    parsed = parse_unified_diff(text)
    assert parse_unified_diff(serialize_diff(parsed)) == parsed


_DIFF_FRAGMENTS = ["@@ -1,2 +1,3 @@", "@@ -0,0 +1 @@", "@@ -1 +1 @@ ctx", "@@ -a,b +c,d @@", "@@",
                   "@@ -99999999999999999999,1 +1 @@", "diff --git a/f.c b/f.c", "--- a/f.c",
                   "+++ b/f.c", "+++ ", "index 0..1 100644", "new file mode 100644", "+x", "-y",
                   " z", "+", "-", " ", "", "\\ No newline at end of file", "Binary files differ",
                   "\r", "+++ b/\u00e9.c", "garbage"]


@given(st.one_of(st.text(), st.lists(st.sampled_from(_DIFF_FRAGMENTS), max_size=40)
                 .map("\n".join)))
@settings(max_examples=400, deadline=None)
def test_parse_raises_only_malformed_diff(text):
    try:
        parse_unified_diff(text)
    except ValueError:  # MalformedDiff is a ValueError
        pass


def _random_hunk(rng: random.Random):
    """(header, body lines, expected (tag, text) lines, header agrees with body) of one hunk.

    A non-empty body ends in a change line, so a body the header undercounts leaves that line
    outside any hunk; texts hold no "+" or "-", so no leftover line reads as a file header.
    """
    body, expected = [], []
    for i in range(rng.randrange(6)):
        if rng.random() < 0.1:
            body.append("\\ No newline at end of file")
        tag = rng.choice("+-") if i == 0 else rng.choice(" +-")  # built last line first
        text = "".join(rng.choice("ab c_{};") for _ in range(rng.randrange(5)))
        if tag == " " and rng.random() < 0.2:
            body.append("")  # a blank context line stripped of its space
            expected.append((LineTag.CONTEXT, ""))
        else:
            body.append(tag + text)
            expected.append(({" ": LineTag.CONTEXT, "+": LineTag.ADDED,
                              "-": LineTag.REMOVED}[tag], text))
    body.reverse()
    expected.reverse()
    context = sum(1 for tag, _ in expected if tag is LineTag.CONTEXT)
    added = sum(1 for tag, _ in expected if tag is LineTag.ADDED)
    removed = sum(1 for tag, _ in expected if tag is LineTag.REMOVED)
    old, new = context + removed, context + added
    if rng.random() < 0.5:
        old, new = max(0, old + rng.randint(-2, 2)), max(0, new + rng.randint(-2, 2))
    header = f"@@ -{rng.randrange(1, 90)},{old} +{rng.randrange(1, 90)},{new} @@"
    return header, body, expected, (old, new) == (context + removed, context + added)


@pytest.mark.parametrize("seed", range(4))
def test_parser_accepts_exactly_the_hunks_whose_counts_match_their_header(seed):
    # the oracle counts each body itself: context + removed against the header's old count,
    # context + added against its new count; the text has no trailing newline, so the body
    # is every line up to the next header or the end
    rng = random.Random(seed)
    for _ in range(500):
        hunks = [_random_hunk(rng) for _ in range(rng.randint(1, 3))]
        text = "\n".join(line for header, body, _, _ in hunks for line in (header, *body))
        if all(agrees for *_, agrees in hunks):
            parsed = parse_unified_diff(text)
            assert [list(h.lines) for h in parsed.hunks] == [e for _, _, e, _ in hunks], text
        else:
            with pytest.raises(MalformedDiff):
                parse_unified_diff(text)
