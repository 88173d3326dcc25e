import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tanglenabla import corpus
from tanglenabla.verify import random_diagram


@pytest.fixture(scope="session")
def corpus_names():
    return corpus.names()


def load(name):
    return corpus.load(name)


def seeded_diagrams(seed, count, max_crossings):
    """``count`` random diagrams with 2, 4 or 6 ends and 1..max_crossings
    crossings, from one seeded generator."""
    rng = random.Random(seed)
    return [random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, max_crossings))
            for _ in range(count)]


@pytest.fixture
def clasp():
    return load("clasp")


@pytest.fixture
def pretzel():
    return load("pretzel_2m3")
