import pytest

import hks
import hks.knowledge


@pytest.mark.parametrize("module", [hks, hks.knowledge], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
