import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """One seed-0 corpus shared by the read-only tests."""
    from vadkit import generate_corpus

    path = tmp_path_factory.mktemp("corpus")
    clips = generate_corpus(0, str(path))
    return path, clips
