import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import MU_N20, build_tables  # noqa: E402
from vcgen.measure import pure_k  # noqa: E402
from vcgen.runtime import TableEngine  # noqa: E402


# The two reference engines are generated once per session: test_runtime
# and test_golden both run them.
@pytest.fixture(scope="session")
def det_engine():
    return TableEngine(build_tables(pure_k(), "deterministic"), pure_k())


@pytest.fixture(scope="session")
def rand_engine():
    return TableEngine(build_tables(MU_N20, "randomized"), MU_N20)
