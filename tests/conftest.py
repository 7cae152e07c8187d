import contextlib
import json
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from lexiforge.alignment import sense_text
from lexiforge.embedding import VectorTable
from lexiforge.ingestion import parse_dictionary
from lexiforge.model import Dictionary, DictionaryEntry, PosTag, Sense

DATA_DIR = Path(__file__).parent / "data"


def make_entry(lemma: str, label: str, *senses: str | tuple[str, str | None]) -> DictionaryEntry:
    """Entry from bare definition strings or (definition, example) pairs."""
    built = []
    for sense in senses:
        if isinstance(sense, tuple):
            definition, example = sense
        else:
            definition, example = sense, None
        built.append(Sense(definition=definition, example=example))
    return DictionaryEntry(lemma=lemma, pos=PosTag.from_label(label), senses=tuple(built))


def make_dictionary(*entries: DictionaryEntry) -> Dictionary:
    dictionary = Dictionary()
    for entry in entries:
        dictionary.add(entry)
    return dictionary


def vector_table(embedder, entries, include_examples: bool = False) -> VectorTable:
    """Every definition and sense text of *entries*, embedded in one batch."""
    texts = set()
    for entry in entries:
        for sense in entry.senses:
            texts.update((sense.definition, sense_text(sense, include_examples)))
    return VectorTable(embedder, texts)


@contextlib.contextmanager
def http_server(handler):
    """Serve *handler* on a free local port from a daemon thread; yields ``http://127.0.0.1:<port>``.

    The short poll interval lets ``shutdown()`` return at once instead of
    after the default half second.
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def load_fixture_dictionary(filename: str) -> Dictionary:
    with open(DATA_DIR / filename, encoding="utf-8") as fh:
        return parse_dictionary(fh)


def load_fixture_rows(filename: str) -> list[dict]:
    rows = []
    with open(DATA_DIR / filename, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def fixture20():
    return (
        load_fixture_dictionary("fixture20_generated.jsonl"),
        load_fixture_dictionary("fixture20_gold.jsonl"),
    )


@pytest.fixture
def planted():
    return (
        load_fixture_dictionary("planted_generated.jsonl"),
        load_fixture_dictionary("planted_gold.jsonl"),
    )
