import os

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def ngram_rows(table):
    """A flat n-gram table {(..., w): count} as the rows a ``TrigramModel``
    takes, {context: {w: count}}: a bigram's context is its first word, a
    trigram's its first two."""
    rows = {}
    for key, count in table.items():
        context = key[0] if len(key) == 2 else key[:-1]
        rows.setdefault(context, {})[key[-1]] = count
    return rows


@pytest.fixture(scope="session")
def fixtures():
    return FIXTURES


@pytest.fixture(scope="session")
def gloss_pipeline():
    from hybridmt.pipeline import Pipeline, load_config

    return Pipeline(load_config(fixture_path("gloss.cfg")))


@pytest.fixture(scope="session")
def interlingua_pipeline():
    from hybridmt.pipeline import Pipeline, load_config

    return Pipeline(load_config(fixture_path("interlingua.cfg")))
