"""Patch explanation generation: prompt text, checksummed content-addressed cache, stub and HTTP backends."""

import hashlib
import json
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from .arrayio import atomic_open, json_value
from .diffs import LineTag, MalformedDiff, parse_unified_diff
from .types import PatchSample

PROMPT_QUESTION = "Could you provide a concise summary of the specified patch?"

CLASSIFICATION_INSTRUCTION = (
    "Choose the correct option to the following question: is the patch "
    "security related or not? Choices: (0) security (1) non-security"
)

AUTH_TOKEN_ENV = "SECPATCH_API_TOKEN"

BACKOFF_S, BACKOFF_CAP_S = 0.5, 8.0  # retry delay: doubles per attempt up to the cap


class ServiceUnavailable(RuntimeError):
    """The external explanation service failed for every allowed attempt."""

    def __init__(self, attempts: int, last_error: Exception | None = None):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(f"explanation service unavailable after {attempts} attempts: {last_error}")


class CacheCorrupt(RuntimeError):
    """A cache entry failed its stored checksum."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"cache entry failed checksum verification: {path}")


@dataclass(frozen=True)
class ExplainerConfig:
    backend: str = "deterministic_stub"  # or "external_service"
    model_name: str = "stub-v1"
    cache_dir: str = "explain_cache"
    endpoint: str | None = None
    timeout: float = 30.0
    max_retries: int = 3

    def __post_init__(self):
        if self.backend not in ("deterministic_stub", "external_service"):
            raise ValueError(f"unknown explainer backend: {self.backend!r}")
        if self.backend == "external_service" and not self.endpoint:
            raise ValueError("external_service backend requires a non-empty endpoint")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if not 0 < self.timeout < float("inf"):
            raise ValueError(f"timeout must be finite and > 0 seconds, got {self.timeout!r}")


def explanation_prompt(patch: PatchSample) -> str:
    """The fixed summary question followed by the patch's diff text."""
    return f"{PROMPT_QUESTION}\n\n{patch.diff_text}"


def instruction_text() -> str:
    """The fixed classification instruction attached to every sample."""
    return CLASSIFICATION_INSTRUCTION


def _cache_path(prompt: str, cfg: ExplainerConfig) -> str:
    """The cache entry of `prompt`'s explanation, named for the prompt and cfg's model."""
    payload = prompt.encode("utf-8") + b"\x00" + cfg.model_name.encode("utf-8")
    return os.path.join(cfg.cache_dir, hashlib.sha256(payload).hexdigest())


def explain(patch: PatchSample, cfg: ExplainerConfig, transport=None, sleep=time.sleep) -> str:
    """Return the explanation for a patch, serving from cache when possible.

    Cache entries are content-addressed by (prompt, model_name), so renaming
    a dataset never invalidates them. The deterministic_stub backend derives
    its summary purely from parsed-diff statistics and needs no network.
    """
    prompt = explanation_prompt(patch)
    path = _cache_path(prompt, cfg)
    if os.path.exists(path):
        return _read_cache_entry(path)

    if cfg.backend == "deterministic_stub":
        text = stub_explanation(patch)
    else:
        text = _call_service(prompt, cfg, transport, sleep)
    _write_cache_entry(path, text)
    return text


def is_cached(patch: PatchSample, cfg: ExplainerConfig) -> bool:
    return os.path.exists(_cache_path(explanation_prompt(patch), cfg))


_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def stub_explanation(patch: PatchSample) -> str:
    """Reproducible offline summary built from diff statistics only."""
    try:
        parsed = parse_unified_diff(patch.diff_text)
        n_hunks = len(parsed.hunks)
        added = parsed.added_count
        removed = parsed.removed_count
        files = list(parsed.files_touched)
        first_added = next(
            (text for hunk in parsed.hunks for tag, text in hunk.lines if tag is LineTag.ADDED),
            None,
        )
    except MalformedDiff:
        lines = patch.diff_text.split("\n")
        n_hunks = sum(1 for l in lines if l.startswith("@@"))
        added = sum(1 for l in lines if l.startswith("+") and not l.startswith("+++"))
        removed = sum(1 for l in lines if l.startswith("-") and not l.startswith("---"))
        files = []
        first_added = next(
            (l[1:] for l in lines if l.startswith("+") and not l.startswith("+++")), None,
        )

    target = f"{', '.join(files)}" if files else "the code"
    parts = [
        f"The patch changes {target} in {n_hunks} {_plural('hunk', n_hunks)}, "
        f"adding {added} {_plural('line', added)} and removing {removed} {_plural('line', removed)}."
    ]
    if first_added is not None:
        ident = _IDENT_RE.search(first_added)
        if ident is not None:
            parts.append(f"The first added line introduces '{ident.group(0)}'.")
    return " ".join(parts)


def _plural(word: str, count: int) -> str:
    return word if count == 1 else word + "s"


def _read_cache_entry(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    # layout: response bytes, newline, one "sha256=<hex>" trailer line, newline
    if not data.endswith(b"\n"):
        raise CacheCorrupt(path)
    cut = data.rfind(b"\n", 0, len(data) - 1)
    if cut < 0:
        raise CacheCorrupt(path)
    body, trailer = data[:cut], data[cut + 1:-1]
    if trailer != b"sha256=" + hashlib.sha256(body).hexdigest().encode("ascii"):
        raise CacheCorrupt(path)
    return body.decode("utf-8")


def _write_cache_entry(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    body = text.encode("utf-8")
    payload = body + b"\nsha256=" + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"
    # no fsync: a torn entry fails its checksum, and concurrent writers of one key are
    # interchangeable
    with atomic_open(path, durable=False) as fh:
        fh.write(payload)


def _default_transport(url: str, payload: bytes, headers: dict, timeout: float) -> bytes:
    request = urllib.request.Request(url, data=payload, headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def _call_service(prompt: str, cfg: ExplainerConfig, transport, sleep) -> str:
    """Minimal chat-completion round trip, up to cfg.max_retries attempts. Connection errors,
    timeouts, 408, 429 and 5xx are retried after a backoff; other failures fail at once."""
    send = transport or _default_transport
    payload = json.dumps({
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
    }).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(AUTH_TOKEN_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"

    for attempt in range(1, cfg.max_retries + 1):
        try:
            raw = send(cfg.endpoint, payload, headers, cfg.timeout)
            text = json_value(raw)["choices"][0]["message"]["content"]
        except OSError as exc:  # URLError, HTTPError and timeouts
            transient = not isinstance(exc, urllib.error.HTTPError) or exc.code >= 500 \
                or exc.code in (408, 429)
            if attempt == cfg.max_retries or not transient:
                raise ServiceUnavailable(attempt, exc) from exc
            sleep(min(BACKOFF_S * 2 ** (attempt - 1), BACKOFF_CAP_S))
            continue
        except (ValueError, LookupError, TypeError) as exc:
            raise ServiceUnavailable(attempt, exc) from exc
        if isinstance(text, str):
            return text
        raise ServiceUnavailable(attempt, TypeError(f"message content is {text!r}"))
