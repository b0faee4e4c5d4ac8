import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the instance generators check their draws with assert; rewritten, these
# checks also run under python -O
pytest.register_assert_rewrite("support")


@pytest.fixture
def rng():
    return random.Random(20240811)
