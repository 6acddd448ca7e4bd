"""The mutation runner's list of equivalent mutants stays in step with the
code: each entry names exactly one site the runner mutates today."""

from pathlib import Path

import pytest

from mutation import EQUIVALENT, ROOT, keys


@pytest.mark.parametrize("key", sorted(EQUIVALENT))
def test_every_equivalent_mutant_is_one_site(key):
    module = key[0]
    source = (ROOT / Path("src", *module.split("."))).with_suffix(".py").read_bytes()
    assert keys(module, source).count(key) == 1
    reason = EQUIVALENT[key]
    assert reason and "\n" not in reason
