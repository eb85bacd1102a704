"""Every invocation of the CLI corpus (``cli_corpus.py``) gives the exit code
and the stdout, stderr and file bytes pinned in ``cli_corpus.json``."""

import json

import pytest

from cli_corpus import CASES, CORPUS_JSON, in_directory, make_fixtures, run_case

RECORDED = json.loads(CORPUS_JSON.read_text())


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    make_fixtures(directory)
    return directory


def test_every_case_is_recorded():
    assert list(RECORDED) == list(CASES)


@pytest.mark.parametrize("name", CASES)
def test_invocation_bytes_match_the_recording(corpus_dir, name):
    argv, outputs = CASES[name]
    with in_directory(corpus_dir):
        assert run_case(argv, outputs) == RECORDED[name]
