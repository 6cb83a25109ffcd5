"""The compress-based experiments regenerate the same rows.

Each digest is ``blake2b(repr(result.rows))`` of a quick-mode run, taken
when these experiments still drove the linked-list compressor directly.
They pin that moving every experiment onto the one production engine
changed no row, and they hold with and without numpy.
"""

import hashlib

import pytest

from repro.experiments import (
    ablation_cutoff,
    ablation_threshold,
    ablation_weights,
    figure1,
    generator_study,
    p2p,
    ratios,
)
from repro.experiments.common import ExperimentConfig

ROW_DIGESTS = {
    ablation_cutoff: "aca9dbbd2c6b08350055780239dbde3d",
    ablation_threshold: "a8667d734e5553923863e6a45176d5c1",
    ablation_weights: "aae602fb995cbf157466ff9d16759ff9",
    p2p: "13d2fc743ae1e71b2dc898fb5f70d6c3",
    figure1: "b7e5a9397573a54f224686671249480a",
    ratios: "49d1156b13f01f86a6ef96c08564f9dd",
    generator_study: "2fb69fc37314da47b0966c30082ddbcc",
}


@pytest.mark.parametrize(
    "module, expected",
    ROW_DIGESTS.items(),
    ids=[module.__name__.rsplit(".", 1)[-1] for module in ROW_DIGESTS],
)
def test_quick_rows_unchanged(module, expected):
    result = module.run(ExperimentConfig().quick())
    digest = hashlib.blake2b(repr(result.rows).encode(), digest_size=16)
    assert digest.hexdigest() == expected
