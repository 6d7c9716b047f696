import hashlib
import os
import urllib.error

import pytest

from conftest import make_sample
from secpatch import (CacheCorrupt, ExplainerConfig, Label, PatchSample, ServiceUnavailable,
                      explain, explanation_prompt, instruction_text, stub_explanation)
from secpatch.explain import PROMPT_QUESTION

EXPECTED_INSTRUCTION = (
    "Choose the correct option to the following question: is the patch "
    "security related or not? Choices: (0) security (1) non-security"
)


def test_prompt_is_question_plus_diff():
    sample = make_sample(1, Label.SECURITY)
    prompt = explanation_prompt(sample)
    assert prompt.startswith("Could you provide a concise summary of the specified patch?")
    assert prompt == f"{PROMPT_QUESTION}\n\n{sample.diff_text}"


def test_prompts_differ_only_in_diff():
    a = explanation_prompt(make_sample(1, Label.SECURITY))
    b = explanation_prompt(make_sample(2, Label.SECURITY))
    assert a != b
    assert a.split("\n\n", 1)[0] == b.split("\n\n", 1)[0]


def test_description_not_part_of_prompt():
    bare = make_sample(1, Label.SECURITY)
    described = PatchSample(id=bare.id, diff_text=bare.diff_text, label=bare.label,
                            description="SHOULD-NOT-APPEAR")
    assert explanation_prompt(described) == explanation_prompt(bare)
    assert "SHOULD-NOT-APPEAR" not in explanation_prompt(described)


def test_instruction_text_exact_and_pure():
    assert instruction_text() == EXPECTED_INSTRUCTION
    assert instruction_text() == instruction_text()
    digest = hashlib.sha256(instruction_text().encode()).hexdigest()
    assert digest == hashlib.sha256(EXPECTED_INSTRUCTION.encode()).hexdigest()


def test_stub_mentions_hunks_and_first_token(sock_fasync_text):
    sample = PatchSample(id="k", diff_text=sock_fasync_text, label=Label.NON_SECURITY)
    text = stub_explanation(sample)
    assert "3 hunks" in text
    assert "sock_set_flag" in text
    assert stub_explanation(sample) == text


def test_stub_survives_malformed_diff():
    sample = PatchSample(id="m", diff_text="@@ -1,0 +1,2 @@\n+only one\n",
                         label=Label.NON_SECURITY)
    text = stub_explanation(sample)
    assert "1 hunk" in text
    assert "only" in text


def test_explain_stub_caches(tmp_path, sock_fasync_text):
    cfg = ExplainerConfig(cache_dir=str(tmp_path / "cache"))
    sample = PatchSample(id="k", diff_text=sock_fasync_text, label=Label.NON_SECURITY)
    first = explain(sample, cfg)
    assert "3 hunks" in first and "sock_set_flag" in first
    assert len(os.listdir(cfg.cache_dir)) == 1
    assert explain(sample, cfg) == first


def test_cache_is_content_addressed(tmp_path):
    cfg = ExplainerConfig(cache_dir=str(tmp_path / "cache"))
    a = make_sample(1, Label.SECURITY)
    renamed = PatchSample(id="totally-different-id", diff_text=a.diff_text, label=a.label)
    explain(a, cfg)
    assert len(os.listdir(cfg.cache_dir)) == 1
    explain(renamed, cfg)
    assert len(os.listdir(cfg.cache_dir)) == 1  # same prompt -> same entry


def test_cache_corruption_detected(tmp_path):
    cfg = ExplainerConfig(cache_dir=str(tmp_path / "cache"))
    sample = make_sample(1, Label.SECURITY)
    explain(sample, cfg)
    entry = os.path.join(cfg.cache_dir, os.listdir(cfg.cache_dir)[0])
    with open(entry, "r+b") as fh:
        fh.write(b"XX")
    with pytest.raises(CacheCorrupt):
        explain(sample, cfg)


@pytest.mark.parametrize("entry", [b"a summary\nsha256=", b"a summary\n"],
                         ids=["no-trailing-newline", "no-trailer-line"])
def test_short_cache_entry_is_corrupt(tmp_path, entry):
    cfg = ExplainerConfig(cache_dir=str(tmp_path / "cache"))
    sample = make_sample(1, Label.SECURITY)
    explain(sample, cfg)
    (name,) = os.listdir(cfg.cache_dir)
    with open(os.path.join(cfg.cache_dir, name), "wb") as fh:
        fh.write(entry)
    with pytest.raises(CacheCorrupt, match=name):
        explain(sample, cfg)


def test_external_backend_uses_cache_without_network(tmp_path):
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(url)
        return b'{"choices": [{"message": {"content": "a summary"}}]}'

    cfg = ExplainerConfig(backend="external_service", endpoint="http://svc.test/v1",
                          model_name="m", cache_dir=str(tmp_path / "cache"))
    sample = make_sample(1, Label.SECURITY)
    assert explain(sample, cfg, transport=transport) == "a summary"
    assert explain(sample, cfg, transport=transport) == "a summary"
    assert len(calls) == 1


def test_service_unavailable_after_exact_retries(tmp_path):
    attempts = []
    delays = []

    def failing(url, payload, headers, timeout):
        attempts.append(1)
        raise OSError("connection refused")

    cfg = ExplainerConfig(backend="external_service", endpoint="http://svc.test/v1",
                          cache_dir=str(tmp_path / "cache"), max_retries=4)
    with pytest.raises(ServiceUnavailable) as err:
        explain(make_sample(1, Label.SECURITY), cfg, transport=failing, sleep=delays.append)
    assert len(attempts) == 4
    assert err.value.attempts == 4
    assert delays == [0.5, 1.0, 2.0]


def _http_error(code):
    return urllib.error.HTTPError("http://svc.test/v1", code, "status", {}, None)


@pytest.mark.parametrize("failure, attempts", [
    (urllib.error.URLError("name resolution failed"), 7),
    (TimeoutError("timed out"), 7),
    (_http_error(500), 7),
    (_http_error(503), 7),
    (_http_error(408), 7),
    (_http_error(429), 7),
    (_http_error(400), 1),
    (_http_error(401), 1),
    (_http_error(404), 1),
    (b'{"choices": []}', 1),
    (b'{"error": {"message": "unknown model"}}', 1),
    (b'{"choices": [{"message": {"content": null}}]}', 1),
    (b'[]', 1),
    (b"<html>bad gateway</html>", 1),
])
def test_service_retries_only_transient_failures(tmp_path, failure, attempts):
    calls = []
    delays = []

    def transport(url, payload, headers, timeout):
        calls.append(1)
        if isinstance(failure, bytes):
            return failure
        raise failure

    cfg = ExplainerConfig(backend="external_service", endpoint="http://svc.test/v1",
                          cache_dir=str(tmp_path / "cache"), max_retries=7)
    with pytest.raises(ServiceUnavailable) as err:
        explain(make_sample(1, Label.SECURITY), cfg, transport=transport, sleep=delays.append)
    assert len(calls) == err.value.attempts == attempts
    assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0][:attempts - 1]  # doubling, capped at 8 s
    assert not os.path.exists(cfg.cache_dir) or os.listdir(cfg.cache_dir) == []


def test_service_recovers_after_backoff(tmp_path):
    replies = [_http_error(503), urllib.error.URLError("reset"),
               b'{"choices": [{"message": {"content": "third time"}}]}']
    delays = []

    def transport(url, payload, headers, timeout):
        reply = replies.pop(0)
        if isinstance(reply, bytes):
            return reply
        raise reply

    cfg = ExplainerConfig(backend="external_service", endpoint="http://svc.test/v1",
                          cache_dir=str(tmp_path / "cache"), max_retries=3)
    assert explain(make_sample(1, Label.SECURITY), cfg, transport=transport,
                   sleep=delays.append) == "third time"
    assert delays == [0.5, 1.0] and replies == []


def test_warm_cache_wins_over_backend_choice(tmp_path):
    # referential transparency: (prompt, model_name) fully determines the result
    def transport(url, payload, headers, timeout):
        return b'{"choices": [{"message": {"content": "from the service"}}]}'

    sample = make_sample(1, Label.SECURITY)
    external = ExplainerConfig(backend="external_service", endpoint="http://svc.test/v1",
                               model_name="shared", cache_dir=str(tmp_path / "cache"))
    explain(sample, external, transport=transport)
    stub = ExplainerConfig(backend="deterministic_stub", model_name="shared",
                           cache_dir=str(tmp_path / "cache"))
    assert explain(sample, stub) == "from the service"


def test_config_validation():
    with pytest.raises(ValueError, match="endpoint"):
        ExplainerConfig(backend="external_service", endpoint=None)
    with pytest.raises(ValueError, match="backend"):
        ExplainerConfig(backend="gpt")
    with pytest.raises(ValueError, match="max_retries"):
        ExplainerConfig(max_retries=0)
    for timeout in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="timeout"):
            ExplainerConfig(timeout=timeout)
