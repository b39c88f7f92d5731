import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nclosed.groups import make_named  # noqa: E402
from nclosed.parsing import parse_group_spec  # noqa: E402


@pytest.fixture
def serial_pool():
    """ProcessPoolExecutor stand-in: records max_workers and the number of
    tasks in .sizes, and maps in this process, so no worker is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            sizes.append(len(tasks))
            return map(fn, tasks)

    SerialPool.sizes = sizes
    return SerialPool


@pytest.fixture(scope="session")
def z4():
    return make_named("cyclic", 4)


@pytest.fixture(scope="session")
def z9():
    return make_named("cyclic", 9)


@pytest.fixture(scope="session")
def z12():
    return make_named("cyclic", 12)


@pytest.fixture(scope="session")
def s3():
    return make_named("symmetric", 3)


@pytest.fixture(scope="session")
def s4():
    return make_named("symmetric", 4)


@pytest.fixture(scope="session")
def q8():
    return make_named("quaternion", 8)


@pytest.fixture(scope="session")
def d4():
    return make_named("dihedral", 4)


# a small cross-section of the default corpus, cheap enough for unit tests
SMALL_CORPUS_SPECS = ("Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "Z12",
                      "Z2xZ2", "S3", "D4", "Q8")


@pytest.fixture(scope="session")
def small_corpus():
    return [parse_group_spec(s) for s in SMALL_CORPUS_SPECS]
