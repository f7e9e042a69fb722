import pytest

from identiscope import bench
from oracles import load_corpus


@pytest.fixture(scope="session")
def corpus_entries():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_reports():
    """One full default bench run (whole corpus, both engines, seed 0).

    Shared across test modules so the expensive analyses run exactly once.
    """
    return bench.run_corpus(None)


@pytest.fixture(scope="session")
def reports_by_key(corpus_reports):
    return {(r.model, r.engine): r for r in corpus_reports}
