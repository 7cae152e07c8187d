"""Seeded inputs for the benchmark workloads, and their ground truth.

Everything the program reads is generated here from the workload seed and
written to a scratch directory: the gold and generated dictionaries, the
failure log and the lemma list. What is known by
construction (join size, confusion cells, planted findings, lemma count)
is returned as ``truth`` so the correctness gate can compare the
program's outputs against it.

The module also holds the two pieces of content the fake services serve:
``trigram_matrix`` (an independent re-implementation of the signed
character-trigram hash, used as the fake sentence encoder and to verify
which entries are hallucination candidates) and ``chat_reply`` (the fake
lexicographer's reply for one lemma).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FNV_OFFSET = np.uint64(14695981039346656037)
FNV_PRIME = np.uint64(1099511628211)
DIMENSION = 512

# Paper Table 1 cells (gold x generated, monosemy/polysemy) over 76,963
# join keys; the workloads keep these shares at their own size.
PAPER_CELLS = {"mono_mono": 49_114, "mono_poly": 699, "poly_mono": 24_444, "poly_poly": 2_706}

POS_LABELS = (
    ("Nombre masculino", 30),
    ("Nombre femenino", 25),
    ("Adjetivo", 20),
    ("Verbo", 15),
    ("Adverbio", 5),
    ("Interjección", 3),
    ("Preposición", 2),
)
_CATEGORY = {"Nombre": "noun", "Adjetivo": "adjective", "Verbo": "verb", "Adverbio": "adverb"}

# Ordinary text and lemmas are built from these syllables. Hallucinated
# definitions use a disjoint alphabet, so they share no trigram with any
# gold definition and score near zero against it.
_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "br", "tr", "pl", "ch", "ll", "gr", "cr")
_VOWELS = ("a", "e", "i", "o", "u", "a", "e", "o", "ia", "ue")
_CODAS = ("", "", "", "", "n", "s", "r", "l")
_ALIEN = "áéíóúüñçàèìòùâêîôûäëïöxkwzyjq"

REFUSAL_TEXT = "Palabra inexistente en español."
PROPER_NOUN_TEXT = "nombre propio de"


def category_of(label: str) -> str:
    return _CATEGORY.get(label.split()[0], "other")


def normalize(text: str) -> str:
    lowered = unicodedata.normalize("NFC", text.lower())
    return re.sub(r"\s+", " ", lowered).strip()


def trigram_matrix(texts: list[str], dimension: int = DIMENSION) -> np.ndarray:
    """Signed FNV-1a trigram counts, one int64 row per text.

    Same definition as the program's deterministic embedder (before its
    L2 normalisation): the normalised text padded with ``#`` on each side,
    each character trigram's UTF-8 bytes hashed with 64-bit FNV-1a, the
    hash picking a bucket (mod dimension) and a sign (top bit). An all-zero
    row falls back to +1 in the first trigram's bucket. Vectorised over all
    trigrams of all texts at once.
    """
    padded = ["#" + normalize(t) + "#" for t in texts]
    lengths = np.fromiter((len(p) for p in padded), dtype=np.int64, count=len(padded))
    if (lengths < 3).any():
        raise ValueError("every text needs at least one character")
    cps = np.frombuffer("".join(padded).encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    nbytes = 1 + (cps >= 0x80) + (cps >= 0x800) + (cps >= 0x10000)
    utf8 = np.zeros((cps.size, 4), dtype=np.uint64)
    for n, lead in ((1, 0x00), (2, 0xC0), (3, 0xE0), (4, 0xF0)):
        rows = nbytes == n
        cp = cps[rows]
        utf8[rows, 0] = lead | (cp >> (6 * (n - 1)))
        for j in range(1, n):
            utf8[rows, j] = 0x80 | ((cp >> (6 * (n - 1 - j))) & 0x3F)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    per_text = lengths - 2
    text_of = np.repeat(np.arange(len(texts)), per_text)
    first = np.concatenate(([0], np.cumsum(per_text)[:-1]))
    tri = starts[text_of] + np.arange(per_text.sum()) - np.repeat(first, per_text)
    h = np.full(tri.size, FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(3):
            idx = tri + k
            for j in range(4):
                live = j < nbytes[idx]
                h[live] = (h[live] ^ utf8[idx[live], j]) * FNV_PRIME
    buckets = (h % np.uint64(dimension)).astype(np.int64)
    signs = np.where((h >> np.uint64(63)) == 0, 1, -1)
    flat = np.bincount(text_of * dimension + buckets, weights=signs, minlength=len(texts) * dimension)
    matrix = flat.reshape(len(texts), dimension).astype(np.int64)
    for row in np.flatnonzero(~matrix.any(axis=1)):
        matrix[row, buckets[first[row]]] = 1
    return matrix


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(syllables))


class _Text:
    """Pseudo-Spanish words, sentences and lemmas from one seeded RNG."""

    def __init__(self, rng: random.Random, vocabulary: int = 4000):
        self.rng = rng
        words: set[str] = set()
        while len(words) < vocabulary:
            words.add(_word(rng, rng.randint(1, 3)))
        self.vocabulary = sorted(words)

    def sentence(self, low: int, high: int) -> str:
        words = self.rng.choices(self.vocabulary, k=self.rng.randint(low, high))
        return " ".join(words).capitalize() + "."

    def alien(self, low: int, high: int) -> str:
        rng = self.rng
        words = ["".join(rng.choice(_ALIEN) for _ in range(rng.randint(3, 8))) for _ in range(rng.randint(low, high))]
        return " ".join(words).capitalize() + "."


def _lemmas(text: _Text, count: int, avoid: set[str]) -> list[str]:
    """Distinct lemmas with a length distribution that does not vary by seed."""
    rng = text.rng
    out: list[str] = []
    seen = set(avoid)
    # 2..5 syllables in fixed shares, so per-length bucket sizes (and with
    # them the neighbour-scan work per candidate) are steady across seeds
    plan = [2] * (count * 20 // 100) + [3] * (count * 40 // 100) + [4] * (count * 30 // 100)
    plan += [5] * (count - len(plan))
    rng.shuffle(plan)
    for syllables in plan:
        while True:
            lemma = _word(rng, syllables)
            if lemma not in seen:
                break
        seen.add(lemma)
        out.append(lemma)
    return out


def _variant(lemma: str, rng: random.Random, taken: set[str]) -> str:
    """A different string within edit distance 1 or 2 of ``lemma``."""
    letters = "abcdefglmnoprstuv"
    while True:
        chars = list(lemma)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(chars))
            chars[i] = rng.choice(letters)
        candidate = "".join(chars)
        if candidate != lemma and candidate not in taken:
            return candidate


def _cells(keys: int) -> dict[str, int]:
    total = sum(PAPER_CELLS.values())
    cells = {name: round(keys * n / total) for name, n in PAPER_CELLS.items()}
    cells["mono_mono"] += keys - sum(cells.values())
    return cells


@dataclass
class Fixture:
    truth: dict
    argv: list[str]  # lexiforge CLI arguments, config path included
    config: Path
    service_texts: list[str] = field(default_factory=list)  # texts the fake encoder precomputes
    units: int = 0  # join keys or lemmas the operation accounts for


def _entry(lemma: str, label: str, senses: list[str]) -> str:
    return json.dumps(
        {"lemma": lemma, "pos": label, "senses": [{"definition": d, "example": None} for d in senses]},
        ensure_ascii=False,
    )


def build_evaluate(directory: Path, seed: int, keys: int, candidate_share: float, embedder: str) -> Fixture:
    """Gold and generated dictionaries with the paper's shape.

    ``keys`` join keys, plus 2.5% gold-only and 2.5% generated-only keys.
    Gold polysemy and generated polysemy follow the paper's confusion
    cells. ``candidate_share`` of the keys get a hallucinated definition;
    half of those copy the definition of a gold lemma within edit
    distance 2 (planted over-corrections), written like the hallucinated
    ones in an alphabet that no other gold definition uses. Circular,
    proper-noun and fabricated-polysemy entries and refusals in the
    failure log are planted in fixed numbers.
    """
    rng = random.Random(seed)
    text = _Text(rng)
    one_sided = keys // 40
    lemmas = _lemmas(text, keys + 2 * one_sided, set(text.vocabulary))
    labels = [label for label, _ in POS_LABELS]
    label_weights = [w for _, w in POS_LABELS]
    pos = rng.choices(labels, weights=label_weights, k=len(lemmas))
    joined = list(range(keys))
    gold_only = list(range(keys, keys + one_sided))
    gen_only = list(range(keys + one_sided, keys + 2 * one_sided))

    cells = _cells(keys)
    shape = ["mono_mono"] * cells["mono_mono"] + ["mono_poly"] * cells["mono_poly"]
    shape += ["poly_mono"] * cells["poly_mono"] + ["poly_poly"] * cells["poly_poly"]
    rng.shuffle(shape)

    def sense_count() -> int:
        return rng.choices((2, 3, 4), weights=(60, 30, 10))[0]

    gold_senses: dict[int, list[str]] = {}
    for i in joined + gold_only:
        if i < keys and shape[i].startswith("poly"):
            gold_senses[i] = [text.sentence(5, 14) for _ in range(sense_count())]
        else:
            # 3% terse, synonym-style gold senses (low-confidence findings)
            gold_senses[i] = [text.sentence(1, 2) if rng.random() < 0.03 else text.sentence(5, 14)]

    # Special roles go to disjoint key sets. Candidates are drawn one per
    # stratum of lemma length so the scan work per run is steady.
    candidates_n = max(2, round(keys * candidate_share))
    overcorrect_n = candidates_n // 2
    mono_keys = [i for i in joined if shape[i] == "mono_mono"]
    by_length = sorted(mono_keys, key=lambda i: (len(lemmas[i]), rng.random()))
    bounds = [len(by_length) * k // candidates_n for k in range(candidates_n + 1)]
    candidates = [by_length[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(candidates)
    overcorrections = candidates[:overcorrect_n]
    taken = set(candidates)
    # plants go on full-length gold definitions, which a decorated copy
    # still matches well above the hallucination threshold
    rest = [i for i in mono_keys if i not in taken and len(gold_senses[i][0].split()) >= 5]
    rng.shuffle(rest)
    circular = rest[: keys // 100]
    proper = rest[keys // 100 : keys // 100 + keys // 200]
    gen_poly = [i for i in joined if shape[i].endswith("_poly")]
    fabricated = rng.sample(gen_poly, len(gen_poly) // 10)

    # Planted over-corrections: a new gold-only lemma spelled within edit
    # distance 2 of the candidate, whose definition the candidate copies.
    all_lemmas = set(lemmas)
    neighbours: dict[int, tuple[str, str, str]] = {}
    for i in overcorrections:
        neighbour = _variant(lemmas[i], rng, all_lemmas | set(text.vocabulary))
        all_lemmas.add(neighbour)
        neighbours[i] = (neighbour, rng.choice(labels), text.alien(5, 12))

    def generated(i: int, base: str, first: str) -> list[str]:
        """Senses of a non-candidate entry whose first sense rewords ``base``."""
        if i in circular:
            first = f"{first[:-1]} {lemmas[i]}."
        elif i in proper:
            first = f"{PROPER_NOUN_TEXT} {first[0].lower()}{first[1:]}"
        if not shape[i].endswith("_poly"):
            return [first]
        if i in fabricated:
            return [first, first]
        others = [_paraphrase(s, text) for s in gold_senses[i] if s != base][:2]
        return [first] + (others or [text.sentence(5, 14)])

    gen_senses: dict[int, list[str]] = {}
    for i in joined:
        gold = gold_senses[i]
        base = gold[0] if len(gold) == 1 or rng.random() < 0.6 else rng.choice(gold[1:])
        if i in neighbours:
            gen_senses[i] = [neighbours[i][2]]
        elif i in taken:
            gen_senses[i] = [text.alien(5, 12)]
        else:
            gen_senses[i] = generated(i, base, _paraphrase(base, text))
    for i in gen_only:
        gen_senses[i] = [text.sentence(5, 14)]

    _verify_candidates(joined, taken, gold_senses, gen_senses, neighbours, text, generated)

    refusals = gold_only[: one_sided // 2]
    parse_errors = gold_only[one_sided // 2 : one_sided // 2 + one_sided // 5]

    directory.mkdir(parents=True, exist_ok=True)
    gold_lines = [_entry(lemmas[i], pos[i], gold_senses[i]) for i in joined + gold_only]
    gold_lines += [_entry(lemma, label, [definition]) for lemma, label, definition in neighbours.values()]
    gen_lines = [_entry(lemmas[i], pos[i], gen_senses[i]) for i in joined + gen_only]
    rng.shuffle(gold_lines)
    rng.shuffle(gen_lines)
    failure_lines = [
        json.dumps({"lemma": lemmas[i], "pos": pos[i], "reason": "refusal", "detail": REFUSAL_TEXT}, ensure_ascii=False)
        for i in refusals
    ] + [
        json.dumps(
            {"lemma": lemmas[i], "pos": None, "reason": "parse_error", "detail": "lemma missing from reply"},
            ensure_ascii=False,
        )
        for i in parse_errors
    ]
    _write_lines(directory / "gold.jsonl", gold_lines)
    _write_lines(directory / "generated.jsonl", gen_lines)
    _write_lines(directory / "failures.jsonl", failure_lines)

    joined_keys = sorted({(lemmas[i], category_of(pos[i])) for i in joined})
    if len(joined_keys) != keys:
        raise AssertionError("join keys collided")
    truth = {
        "join_size": keys,
        "skipped_keys": 0,
        "confusion": cells,
        "join_keys": joined_keys,
        "findings": {
            "hallucination_candidate": candidates_n,
            "overcorrection": overcorrect_n,
            "circularity": len(circular),
            "proper_noun_as_common": len(proper),
            "fabricated_polysemy": len(fabricated),
            "refusal": len(refusals),
        },
    }
    service_texts = sorted({s for senses in gold_senses.values() for s in senses} | {s for senses in gen_senses.values() for s in senses} | {n[2] for n in neighbours.values()})
    config = directory / "config.ini"
    argv = [
        "evaluate",
        "--generated", str(directory / "generated.jsonl"),
        "--gold", str(directory / "gold.jsonl"),
        "--embedder", embedder,
        "--config", str(config),
        "--failures", str(directory / "failures.jsonl"),
    ]
    return Fixture(truth, argv, config, service_texts, units=keys)


def _paraphrase(definition: str, text: _Text) -> str:
    """A close rewording: a fifth of the words swapped for others."""
    words = definition[:-1].lower().split()
    if len(words) >= 5:
        for _ in range(max(1, len(words) // 5)):
            words[text.rng.randrange(len(words))] = text.rng.choice(text.vocabulary)
    return " ".join(words).capitalize() + "."


def _verify_candidates(joined, candidates, gold_senses, gen_senses, neighbours, text: _Text, generated) -> None:
    """Make the hallucination-candidate set exact by construction.

    Candidates must score below the 0.1 threshold against every own gold
    sense, everything else well above it; rewrite the rare entry that
    lands on the wrong side by chance: a candidate gets new text, any
    other entry a first sense that copies its gold one (``generated``
    keeps its plants).
    """
    for _ in range(20):
        gen_texts = [gen_senses[i][0] for i in joined]
        gold_texts = sorted({s for i in joined for s in gold_senses[i]})
        row = {t: k for k, t in enumerate(gold_texts)}
        gen_m = trigram_matrix(gen_texts).astype(np.float64)
        gold_m = trigram_matrix(gold_texts).astype(np.float64)
        gen_m /= np.linalg.norm(gen_m, axis=1, keepdims=True)
        gold_m /= np.linalg.norm(gold_m, axis=1, keepdims=True)
        wrong = []
        for k, i in enumerate(joined):
            best = max(float(gen_m[k] @ gold_m[row[s]]) for s in gold_senses[i])
            if (i in candidates and best >= 0.08) or (i not in candidates and best < 0.15):
                wrong.append(i)
        if not wrong:
            return
        for i in wrong:
            if i in neighbours:
                lemma, label, _ = neighbours[i]
                neighbours[i] = (lemma, label, text.alien(5, 12))
                gen_senses[i][0] = neighbours[i][2]
            elif i in candidates:
                gen_senses[i][0] = text.alien(5, 12)
            else:
                gen_senses[i] = generated(i, gold_senses[i][0], gold_senses[i][0])
    raise AssertionError("could not separate hallucination candidates from the rest")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# --- generate ------------------------------------------------------------

REPLY_REFUSED = 3  # percent of lemmas the fake refuses
REPLY_OMITTED = 2  # percent of lemmas the fake leaves out of its reply


def bucket(key: str, salt: str) -> int:
    """Stable 0..99 bucket of a string; never depends on arrival order."""
    return int.from_bytes(hashlib.sha256(f"{salt}\0{key}".encode("utf-8")).digest()[:8], "big") % 100


def chat_reply(lemma: str, label: str | None) -> str | None:
    """The fake lexicographer's block for one lemma (None when omitted).

    Content is a pure function of the lemma, so outcomes do not depend on
    how lemmas are batched or in which order batches run.
    """
    roll = bucket(lemma, "outcome")
    if roll < REPLY_OMITTED:
        return None
    rng = random.Random(hashlib.sha256(lemma.encode("utf-8")).digest())
    label = label or rng.choice([name for name, _ in POS_LABELS])
    if roll < REPLY_OMITTED + REPLY_REFUSED:
        return f"{lemma}: {label}: {REFUSAL_TEXT}"
    senses = 2 if rng.random() < 0.15 else 1
    lines = []
    for n in range(1, senses + 1):
        definition = " ".join(_word(rng, rng.randint(1, 3)) for _ in range(rng.randint(5, 14))).capitalize()
        example = " ".join(_word(rng, rng.randint(1, 3)) for _ in range(rng.randint(4, 8))).capitalize()
        head = f"{lemma}: {label}: " if n == 1 else f"{n}. "
        lines.append(f"{head}{definition}. Ejemplo: {example}.")
    return "\n".join(lines)


def chat_outcome(lemma: str) -> str:
    roll = bucket(lemma, "outcome")
    return "omitted" if roll < REPLY_OMITTED else "refused" if roll < REPLY_OMITTED + REPLY_REFUSED else "defined"


def build_generate(directory: Path, seed: int, lemma_count: int, batch_size: int) -> Fixture:
    """A lemma list of ``lemma_count`` distinct lemmas, 80% with a POS label.

    ``max_output_tokens`` is set from the fake's replies so that about one
    batch in ten overflows it and comes back cut, with finish_reason
    "length".
    """
    rng = random.Random(seed)
    text = _Text(rng, vocabulary=10)
    lemmas = _lemmas(text, lemma_count, set())
    labels = [label for label, _ in POS_LABELS]
    weights = [w for _, w in POS_LABELS]
    records = [(lemma, rng.choices(labels, weights=weights)[0] if rng.random() < 0.8 else None) for lemma in lemmas]
    directory.mkdir(parents=True, exist_ok=True)
    _write_lines(directory / "lemmas.txt", [f"{lemma}\t{label}" if label else lemma for lemma, label in records])

    words = []
    for start in range(0, len(records), batch_size):
        replies = [chat_reply(lemma, label) for lemma, label in records[start : start + batch_size]]
        words.append(sum(len(r.split()) for r in replies if r))
    overflowing = max(1, len(words) // 10)
    max_tokens = sorted(words, reverse=True)[overflowing]

    truth = {
        "lemma_count": len(records),
        "lemmas": sorted(lemma for lemma, _ in records),
        "refused": sorted(lemma for lemma, _ in records if chat_outcome(lemma) == "refused"),
        "omitted": sorted(lemma for lemma, _ in records if chat_outcome(lemma) == "omitted"),
        "max_output_tokens": max_tokens,
        "overflowing_batches": sum(1 for w in words if w > max_tokens),
    }
    config = directory / "config.ini"
    argv = [
        "generate",
        "--lemmas", str(directory / "lemmas.txt"),
        "--config", str(config),
    ]
    return Fixture(truth, argv, config, units=len(records))
