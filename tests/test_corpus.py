"""The example corpus: every system builds or fails as its comment says,
every document reads or is refused, and the byte check writes each one
under its file name, so the tests and the byte check run the same inputs."""

import json
import pathlib
import random
import sys

import pytest

import corpus
from liepde import parser, structure
from liepde.errors import ExpansionLimitError, ParseError

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bytecheck  # noqa: E402

SYSTEMS = {**corpus.SYSTEMS, **corpus.HIGH_ORDER, "absent_lead": corpus.ABSENT_LEAD}
# the systems whose build raises, by the error their comment names
REFUSED = {"high_lead.pde": ParseError, "absent_lead": ParseError, "power.pde": ParseError,
           "product.pde": ParseError,
           "stage_power.pde": ExpansionLimitError,
           **{name: ParseError for name in corpus.BAD_SYSTEMS}}
# the malformed documents that `verify-optimal --file` reads
MALFORMED_TABLES = {"float_table.json", "no_entries.json", "numeric_label.json"}


@pytest.mark.parametrize("name", [*SYSTEMS, *corpus.BAD_SYSTEMS])
def test_system_builds_or_raises_its_error(name):
    text = SYSTEMS.get(name) or corpus.BAD_SYSTEMS[name]
    if name not in REFUSED:
        _, system = parser.build_system(parser.parse_system(text))
        assert system.solved
        return
    with pytest.raises(REFUSED[name]):
        parser.build_system(parser.parse_system(text))


@pytest.mark.parametrize("document", [
    *corpus.ALGEBRAS.values(), corpus.spectrum(corpus.HUGE), corpus.borel(3),
    corpus.borel(4, random.Random(7)),
])
def test_algebra_reads(document):
    L = structure.algebra_from_json(document)
    assert L.n == document["dim"]


@pytest.mark.parametrize("name", corpus.TABLES)
def test_table_reads(name):
    L = structure.algebra_from_json(corpus.ALGEBRAS[name.replace("_table", "")])
    entries = structure.table_from_json(corpus.TABLES[name])
    assert all(len(v) == L.n for _, vectors in entries for v in vectors)


@pytest.mark.parametrize("name", [*corpus.MALFORMED, "STRING_DIM"])
def test_malformed_document_is_refused(name):
    document = corpus.MALFORMED.get(name, corpus.STRING_DIM)
    read = (structure.table_from_json if name in MALFORMED_TABLES
            else structure.algebra_from_json)
    with pytest.raises(ValueError):
        read(document)


def test_bytecheck_writes_and_runs_every_corpus_document(tmp_path):
    commands = bytecheck.write_inputs(str(tmp_path), str(ROOT))
    named = {arg for command in commands for arg in command}
    texts = {**corpus.SYSTEMS, **corpus.BAD_SYSTEMS, **corpus.HIGH_ORDER}
    documents = {**corpus.ALGEBRAS, **corpus.TABLES, **corpus.MALFORMED}
    for name, text in texts.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
    for name, document in documents.items():
        assert json.loads((tmp_path / name).read_text()) == document, name
    assert set(texts) | set(documents) <= named
