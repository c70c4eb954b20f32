"""Test-session set-up shared by ``tests/`` and ``perfbench/tests/``."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def corpus_cache_in_a_temp_dir(tmp_path_factory):
    """Point the corpus cache (``$XDG_CACHE_HOME/colordesc``) at a
    directory of this session, for the tests and the processes they start,
    so that no test reads or writes the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
