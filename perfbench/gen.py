"""Seeded benchmark inputs: ragged C-style unified diffs with explanations and descriptions.

Lengths come from fixed log-spaced ladders that the seed only permutes, so
every seed gives the same total work and a different corpus. Both classes
draw identifiers and statement templates from one shared pool and differ only
in how often they pick the security-flavoured templates, so the classes
overlap and SBCL triplets stay active at initialisation.
"""

import math
import re

import numpy as np

from secpatch.types import Label, PatchSample

TOKEN_RE = re.compile(r"\w+|[^\w\s]")  # the tokenizer's split rule; used to hit length targets

PREFIXES = ("net", "fs", "mm", "usb", "tcp", "ext4", "drm", "snd", "nfs", "xfs", "bpf", "io",
            "pci", "scsi", "crypto", "sched", "ipc", "kvm", "sound", "block")
STEMS = ("buf", "len", "skb", "req", "hdr", "ctx", "dev", "page", "node", "sock", "inode",
         "entry", "queue", "count", "offset", "flags", "state", "table", "index", "size",
         "desc", "msg", "attr", "frame", "slot", "ring", "key", "map", "ops", "priv")
CALLS = ("memcpy", "strncpy", "kfree", "kmalloc", "memset", "copy_from_user", "spin_lock",
         "spin_unlock", "mutex_lock", "mutex_unlock", "snprintf", "strlen", "list_add",
         "refcount_inc", "put_user", "get_user")

SECURITY_LINES = (
    "if ({a} > {b}) return -EINVAL;",
    "if (!{a}) goto out_{b};",
    "{call}({a}, {b}, min_t(size_t, {c}, sizeof({a})));",
    "{a} = NULL;",
    "if ({a} + {b} < {a}) return -EOVERFLOW;",
    "{call}(&{a}->lock);",
)
NEUTRAL_LINES = (
    "{a} = {call}({b}, {c});",
    "{a}->{b} = {c};",
    "for (i = 0; i < {a}; i++) {b}[i] = {c}[i];",
    "pr_debug(\"{a} {b} %d\\n\", {c});",
    "return {a}({b}, {c});",
    "static int {a}(struct {b} *{c});",
    "{a} += {b} * {c};",
)

WORDS = ("the", "patch", "changes", "function", "value", "before", "after", "when", "check",
         "handle", "length", "buffer", "pointer", "memory", "error", "path", "update", "remove",
         "add", "call", "field", "struct", "caller", "return", "lock", "release", "input",
         "user", "kernel", "driver", "size", "bound", "index", "list", "free", "copy")


class Generator:
    """Deterministic corpus source for one workload seed."""

    def __init__(self, seed: int, vocab_size: int):
        self.rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size

    def ident(self) -> str:
        i = int(self.rng.integers(self.vocab_size))
        n_pre, n_stem = len(PREFIXES), len(STEMS)
        return f"{PREFIXES[i % n_pre]}_{STEMS[(i // n_pre) % n_stem]}_{i // (n_pre * n_stem)}"

    def code_line(self, security_bias: float) -> str:
        pool = SECURITY_LINES if self.rng.random() < security_bias else NEUTRAL_LINES
        template = pool[int(self.rng.integers(len(pool)))]
        return "    " + template.format(a=self.ident(), b=self.ident(), c=self.ident(),
                                        call=CALLS[int(self.rng.integers(len(CALLS)))])

    def diff(self, target_tokens: int, security_bias: float) -> str:
        """A well-formed multi-file diff with at least `target_tokens` tokens."""
        out, count = [], 0
        while count < target_tokens:
            path = f"{PREFIXES[int(self.rng.integers(len(PREFIXES)))]}/{self.ident()}.c"
            header = [f"diff --git a/{path} b/{path}", f"--- a/{path}", f"+++ b/{path}"]
            out += header
            count += sum(len(TOKEN_RE.findall(line)) for line in header)
            start = int(self.rng.integers(1, 2000))
            for _ in range(int(self.rng.integers(1, 4))):
                body = [" " + self.code_line(0.3)]
                for _ in range(int(self.rng.integers(3, 10))):
                    tag = "-" if self.rng.random() < 0.35 else "+"
                    body.append(tag + self.code_line(security_bias))
                body.append(" " + self.code_line(0.3))
                old = sum(1 for line in body if line[0] != "+")
                new = sum(1 for line in body if line[0] != "-")
                out.append(f"@@ -{start},{old} +{start},{new} @@")
                out += body
                count += sum(len(TOKEN_RE.findall(line)) for line in out[-len(body) - 1:])
                start += old + int(self.rng.integers(5, 60))
                if count >= target_tokens:
                    break
        return "\n".join(out) + "\n"

    def prose(self, target_tokens: int) -> str:
        words = []
        while len(words) < target_tokens:
            if self.rng.random() < 0.2:
                words.append(self.ident())
            else:
                words.append(WORDS[int(self.rng.integers(len(WORDS)))])
        return " ".join(words[:target_tokens])


def ladder(n: int, low: int, high: int) -> list[int]:
    """n log-spaced lengths from low to high, shortest first."""
    return [int(v) for v in np.exp(np.linspace(math.log(low), math.log(high), n)).round()]


def make_corpus(seed: int, n: int, *, vocab_size: int, patch_tokens=(32, 720),
                explanation_tokens=(40, 200), missing_description=0.25,
                with_explanation: bool = True, prefix: str = "gen") -> list[PatchSample]:
    """n samples alternating security / non-security, ragged in every modality.

    One seeded permutation ranks the samples; the sample of rank r takes the
    r-th length of every ladder and misses its description at fixed ranks,
    so the work per corpus (including patch x explanation products) is the
    same for every seed.
    """
    gen = Generator(seed, vocab_size)
    rank = gen.rng.permutation(n)
    patch_len = ladder(n, *patch_tokens)
    ex_len = ladder(n, *explanation_tokens)
    desc_len = ladder(n, 6, 40)
    n_missing = round(missing_description * n)
    missing = set(np.linspace(0, n - 1, n_missing).round().astype(int).tolist()) if n_missing else set()
    samples = []
    for i in range(n):
        r = int(rank[i])
        security = i % 2 == 0
        samples.append(PatchSample(
            id=f"{prefix}-{seed}-{i:05d}",
            diff_text=gen.diff(patch_len[r], 0.6 if security else 0.4),
            label=Label.SECURITY if security else Label.NON_SECURITY,
            description=None if r in missing else gen.prose(desc_len[r]),
            explanation=gen.prose(ex_len[r]) if with_explanation else None,
            source="perfbench",
        ))
    return samples


def input_properties(samples, tokenizer, max_tokens: int, cache_entries: int) -> dict:
    """Input properties a later change might target, measured with the program's tokenizer."""
    per_modality = {"patch": [], "explanation": [], "description": []}
    distinct = set()
    for s in samples:
        for name, text in (("patch", s.diff_text), ("explanation", s.explanation),
                           ("description", s.description)):
            if text is None:
                continue
            ids = tokenizer.encode(text)
            per_modality[name].append(len(ids))
            distinct.update(ids[:max_tokens])
    props = {"samples": len(samples)}
    for name, lengths in per_modality.items():
        props[f"{name}_tokens_p50"] = float(np.median(lengths)) if lengths else 0.0
        props[f"{name}_tokens_max"] = max(lengths, default=0)
    props["patch_truncated_share"] = float(np.mean([n > max_tokens for n in per_modality["patch"]]))
    props["explanation_supplied_share"] = len(per_modality["explanation"]) / len(samples)
    props["description_missing_share"] = 1.0 - len(per_modality["description"]) / len(samples)
    props["distinct_token_ids"] = len(distinct)
    props["distinct_token_ids_over_row_cache"] = len(distinct) / cache_entries
    return props
