import contextlib
import json
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from lexiforge.alignment import BlockAlignment
from lexiforge.embedding import VectorTable, vector_tables
from lexiforge.ingestion import parse_dictionary
from lexiforge.model import Dictionary, DictionaryEntry, PosCategory, PosTag, Sense, normalize_lemma

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
    return Dictionary(entries)


_LABELS = {
    PosCategory.NOUN: "Nombre masculino",
    PosCategory.ADJECTIVE: "Adjetivo",
    PosCategory.VERB: "Verbo",
    PosCategory.ADVERB: "Adverbio",
    PosCategory.OTHER: "Interjección",
}


def make_alignment(*rows: tuple[str, PosCategory, int, list[float]]) -> BlockAlignment:
    """An alignment of hand-given scores; each row is (lemma, category, generated sense count, per-gold scores).

    The derived arrays are computed as a reference would: the first
    maximum's 1-based index, the maximum and ``sum / len``.
    """
    generated = make_dictionary(
        *(
            make_entry(lemma, _LABELS[category], *(f"Sentido {i} de {lemma}." for i in range(1, gen_count + 1)))
            for lemma, category, gen_count, _ in rows
        )
    )
    gold = make_dictionary(
        *(
            make_entry(lemma, _LABELS[category], *(f"Oro {i} de {lemma}." for i in range(1, len(scores) + 1)))
            for lemma, category, _, scores in rows
        )
    )
    every = [list(scores) for *_, scores in rows]
    return BlockAlignment(
        generated=generated,
        gen_index=np.array([generated.find(lemma, category) for lemma, category, *_ in rows], dtype=np.int64),
        gold_index=np.array([gold.find(lemma, category) for lemma, category, *_ in rows], dtype=np.int64),
        gen_sense_count=np.array([gen_count for _, _, gen_count, _ in rows], dtype=np.int64),
        scores=np.array([score for scores in every for score in scores], dtype=np.float64),
        offsets=np.cumsum([0] + [len(scores) for scores in every], dtype=np.int64),
        best_gold_index=np.array([scores.index(max(scores)) + 1 for scores in every], dtype=np.int64),
        best_score=np.array([max(scores) for scores in every], dtype=np.float64),
        mean_over_gold=np.array([sum(scores) / len(scores) for scores in every], dtype=np.float64),
    )


def assert_checked(entries) -> None:
    """What ``Sense`` and ``DictionaryEntry`` rely on their producers for."""
    for entry in entries:
        assert entry.lemma == normalize_lemma(entry.lemma)
        assert entry.senses
        for sense in entry.senses:
            assert sense.definition and sense.definition == sense.definition.strip()


def table_of(embedder, texts) -> VectorTable:
    """The one table ``vector_tables`` fills with *texts*."""
    [(_, table)] = vector_tables(embedder, [texts], lambda item: item)
    return table


def vector_table(embedder, entries) -> VectorTable:
    """Every definition of *entries*, embedded in one batch."""
    return table_of(embedder, {sense.definition for entry in entries for sense in entry.senses})


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
