"""Synthetic linearly separable patch corpus for demos and smoke tests."""

import numpy as np

from .types import Label, PatchSample

_SECURITY_DESCRIPTIONS = (
    "fix buffer overflow in request handler",
    "prevent out of bounds write when parsing header",
    "sanitize untrusted length before copy",
    "add bounds check to avoid heap corruption",
)

_NON_SECURITY_DESCRIPTIONS = (
    "rename local variable for clarity",
    "update comment wording in renderer",
    "reformat whitespace and tidy includes",
    "simplify widget layout bookkeeping",
)


def _security_diff(i: int) -> str:
    return (
        f"@@ -{10 + i},4 +{10 + i},5 @@\n"
        f" int handle_{i}(char *input) {{\n"
        f"-    strcpy(buffer_{i}, input);\n"
        f"+    strncpy(buffer_{i}, input, sizeof(buffer_{i}) - 1);\n"
        f"+    buffer_{i}[sizeof(buffer_{i}) - 1] = '\\0';\n"
        f"     return validate_{i}(buffer_{i});\n"
        f" }}\n"
    )


def _non_security_diff(i: int) -> str:
    return (
        f"@@ -{20 + i},4 +{20 + i},4 @@\n"
        f" /* renderer module {i} */\n"
        f"-    int old_widget_{i} = panel_count;\n"
        f"+    int new_widget_{i} = panel_count;\n"
        f"     draw_panel_{i}(new_widget_{i});\n"
        f" }}\n"
    )


_CLASSES = (  # by i % 2: the diff for index i, the label, the descriptions
    (_security_diff, Label.SECURITY, _SECURITY_DESCRIPTIONS),
    (_non_security_diff, Label.NON_SECURITY, _NON_SECURITY_DESCRIPTIONS),
)


def make_synthetic_samples(n: int = 64, seed: int = 11, source: str = "synthetic") -> list[PatchSample]:
    """Generate n samples, half security and half not, with class-distinct token sets."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        make_diff, label, descriptions = _CLASSES[i % 2]
        description = descriptions[int(rng.integers(len(descriptions)))]
        samples.append(PatchSample(f"syn-{i:04d}", make_diff(i), label, description,
                                   source=source))
    return samples
