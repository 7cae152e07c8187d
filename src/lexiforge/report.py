"""Evaluation report assembly, serialization and table rendering.

The report file is self-contained: every rendered table is recomputable
from it alone, and it embeds the effective configuration plus input
digests so any number can be traced back to exact inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .alignment import AlignmentRecord, align_dictionaries, all_pairs_scores, rank_histogram, sense_text
from .embedding import VectorTable
from .error_analysis import ErrorAnalysisConfig, ErrorCategory, ErrorReport, classify_errors, detect_fabricated_polysemy
from .exceptions import ParseError
from .generation import GenerationFailure
from .metrics import (
    GROUP_ORDER,
    ClassMetrics,
    ConfusionMatrix2x2,
    LengthStats,
    StatsSummary,
    class_metrics,
    cosine_stats,
    length_stats,
    polysemy_confusion,
)
from .model import Dictionary, vocabulary_join

_GROUP_LABELS = {
    "all": "All",
    "noun": "Nouns",
    "adjective": "Adjectives",
    "verb": "Verbs",
    "adverb": "Adverbs",
    "other": "Other",
}


@contextmanager
def atomic_text(path: str | Path) -> Iterator[io.TextIOWrapper]:
    """Write to a temp file and rename into place; no partial outputs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class EvaluationReport:
    join_size: int
    confusion: ConfusionMatrix2x2
    class_metrics: dict[str, ClassMetrics]
    cosine_monosemous_gold: dict[str, StatsSummary]
    cosine_polysemous_gold: dict[str, StatsSummary]
    length_generated: dict[str, LengthStats]
    length_gold: dict[str, LengthStats]
    rank_histogram: dict[int, int]
    error_summary: dict[str, int]
    circularity_rate: float
    config_snapshot: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "join_size": self.join_size,
            # always 0, since the join holds only keys present on both sides;
            # kept because perfbench's gate and existing report files read it
            "skipped_keys": 0,
            "confusion": asdict(self.confusion),
            "class_metrics": {k: asdict(v) for k, v in self.class_metrics.items()},
            "cosine_monosemous_gold": {k: asdict(v) for k, v in self.cosine_monosemous_gold.items()},
            "cosine_polysemous_gold": {k: asdict(v) for k, v in self.cosine_polysemous_gold.items()},
            "length_stats": {
                "generated": {k: asdict(v) for k, v in self.length_generated.items()},
                "gold": {k: asdict(v) for k, v in self.length_gold.items()},
            },
            "rank_histogram": {str(k): v for k, v in sorted(self.rank_histogram.items())},
            "error_summary": dict(sorted(self.error_summary.items())),
            "circularity_rate": self.circularity_rate,
            "config": self.config_snapshot,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationReport":
        try:
            lengths = data["length_stats"]
            return cls(
                join_size=int(data["join_size"]),
                confusion=ConfusionMatrix2x2(**data["confusion"]),
                class_metrics={k: ClassMetrics(**v) for k, v in data["class_metrics"].items()},
                cosine_monosemous_gold={
                    k: StatsSummary(**v) for k, v in data["cosine_monosemous_gold"].items()
                },
                cosine_polysemous_gold={
                    k: StatsSummary(**v) for k, v in data["cosine_polysemous_gold"].items()
                },
                length_generated={k: _length_from_dict(v) for k, v in lengths["generated"].items()},
                length_gold={k: _length_from_dict(v) for k, v in lengths["gold"].items()},
                rank_histogram={int(k): int(v) for k, v in data["rank_histogram"].items()},
                error_summary={k: int(v) for k, v in data["error_summary"].items()},
                circularity_rate=float(data["circularity_rate"]),
                config_snapshot=data.get("config", {}),
                provenance=data.get("provenance", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid evaluation report: {exc}") from exc


def _length_from_dict(data: dict) -> LengthStats:
    return LengthStats(words=StatsSummary(**data["words"]), characters=StatsSummary(**data["characters"]))


def write_report(report: EvaluationReport, path: str | Path) -> None:
    with atomic_text(path) as fh:
        json.dump(report.to_dict(), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_report(path: str | Path) -> EvaluationReport:
    with open(path, encoding="utf-8") as fh:
        return EvaluationReport.from_dict(json.load(fh))


@dataclass
class EvaluationResult:
    report: EvaluationReport
    records: list[AlignmentRecord]
    errors: ErrorReport
    polysemy_pairs: list[dict]


def evaluate_dictionaries(
    generated: Dictionary,
    gold: Dictionary,
    embedder,
    error_config: ErrorAnalysisConfig | None = None,
    include_examples: bool = False,
    failures: Sequence[GenerationFailure] | None = None,
    config_snapshot: dict | None = None,
    provenance: dict | None = None,
) -> EvaluationResult:
    """Full quantitative evaluation over the vocabulary join.

    Cosine tables, the rank histogram and the polysemy-disagreement
    statistics are restricted to generated-monosemous records, matching
    the populations the summary tables describe; the confusion matrix and
    classification metrics use every join key.

    The embedder sees at most two ``embed_batch`` calls: one here for the
    scores below and one in ``classify_errors`` for over-corrections.
    """
    error_config = error_config or ErrorAnalysisConfig()
    join = vocabulary_join(generated, gold)
    texts = {s.definition for entry in generated.entries() if len(entry.senses) > 1 for s in entry.senses}
    for pair in join:
        for entry in pair:
            texts.update(sense_text(s, include_examples) for s in entry.senses)
    vectors = VectorTable(embedder, texts)
    records = align_dictionaries(join, vectors, include_examples)
    polysemy_pairs = [
        {
            "lemma": gen.lemma,
            "category": gen.pos.category.value,
            "scores": all_pairs_scores(gen, gold_entry, vectors, include_examples),
        }
        for gen, gold_entry in join
        if len(gen.senses) > 1
    ]
    polysemy = {entry.key: detect_fabricated_polysemy(entry, vectors, error_config) for entry in generated.entries()}
    del vectors  # the run's largest object; freed before classify_errors builds the neighbour index
    confusion = polysemy_confusion(join)
    gen_mono = [r for r in records if r.gen_sense_count == 1]
    errors = classify_errors(generated, gold, records, embedder, polysemy, error_config, failures)

    report = EvaluationReport(
        join_size=len(join),
        confusion=confusion,
        class_metrics={
            "monosemy": class_metrics(confusion, "monosemy"),
            "polysemy": class_metrics(confusion, "polysemy"),
        },
        cosine_monosemous_gold=cosine_stats(gen_mono, "best_score", "monosemous"),
        cosine_polysemous_gold=cosine_stats(gen_mono, "mean_over_gold", "polysemous"),
        length_generated=length_stats(generated) if len(generated) else {},
        length_gold=length_stats(gold) if len(gold) else {},
        rank_histogram=rank_histogram(gen_mono),
        error_summary=errors.summary,
        circularity_rate=errors.summary[ErrorCategory.CIRCULARITY.value] / len(generated) if len(generated) else 0.0,
        config_snapshot=config_snapshot or {},
        provenance=provenance or {},
    )
    return EvaluationResult(report=report, records=records, errors=errors, polysemy_pairs=polysemy_pairs)


# --- table rendering ---------------------------------------------------


def _fmt(value: float | None, places: int) -> str:
    return "n/a" if value is None else f"{value:.{places}f}"


def _table1_rows(report: EvaluationReport) -> list[list[str]]:
    m = report.confusion
    return [
        ["", "Monosemy", "Polysemy", "Total"],
        ["Monosemy", str(m.mono_mono), str(m.mono_poly), str(m.actual_mono)],
        ["Polysemy", str(m.poly_mono), str(m.poly_poly), str(m.actual_poly)],
        ["Total", str(m.pred_mono), str(m.pred_poly), str(m.total)],
    ]


def _table2_rows(report: EvaluationReport) -> list[list[str]]:
    rows = [["", "Precision", "Recall", "F1"]]
    for name in ("monosemy", "polysemy"):
        cm = report.class_metrics[name]
        rows.append([name.capitalize(), _fmt(cm.precision, 3), _fmt(cm.recall, 3), _fmt(cm.f1, 3)])
    return rows


def _stats_table_rows(groups: dict[str, StatsSummary]) -> list[list[str]]:
    rows = [["POS tag", "Mean", "Std Dev"]]
    for group in GROUP_ORDER:
        if group == "other" and group not in groups:
            continue
        summary = groups.get(group)
        rows.append(
            [
                _GROUP_LABELS[group],
                _fmt(summary.mean if summary else None, 4),
                _fmt(summary.std_dev if summary else None, 4),
            ]
        )
    return rows


def _table4_rows(report: EvaluationReport) -> list[list[str]]:
    rows = [["POS tag", "Measure", "Gold words", "Gold characters", "Generated words", "Generated characters"]]
    present = set(report.length_generated) | set(report.length_gold)
    for group in GROUP_ORDER:
        if group == "other" and group not in present:
            continue
        gold = report.length_gold.get(group)
        gen = report.length_generated.get(group)
        rows.append(
            [
                _GROUP_LABELS[group],
                "Mean",
                _fmt(gold.words.mean if gold else None, 2),
                _fmt(gold.characters.mean if gold else None, 2),
                _fmt(gen.words.mean if gen else None, 2),
                _fmt(gen.characters.mean if gen else None, 2),
            ]
        )
        rows.append(
            [
                "",
                "Std Dev",
                _fmt(gold.words.std_dev if gold else None, 2),
                _fmt(gold.characters.std_dev if gold else None, 2),
                _fmt(gen.words.std_dev if gen else None, 2),
                _fmt(gen.characters.std_dev if gen else None, 2),
            ]
        )
    return rows


def _figure1_rows(report: EvaluationReport) -> list[list[str]]:
    rows = [["best_gold_index", "count"]]
    for index, count in sorted(report.rank_histogram.items()):
        rows.append([str(index), str(count)])
    return rows


def _all_tables(report: EvaluationReport) -> dict[str, list[list[str]]]:
    return {
        "table1": _table1_rows(report),
        "table2": _table2_rows(report),
        "table3": _stats_table_rows(report.cosine_monosemous_gold),
        "table4": _table4_rows(report),
        "table5": _stats_table_rows(report.cosine_polysemous_gold),
        "figure1": _figure1_rows(report),
    }


def _write_csv(rows: list[list[str]], path: Path) -> None:
    with atomic_text(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _write_markdown(rows: list[list[str]], path: Path) -> None:
    with atomic_text(path) as fh:
        header, *body = rows
        fh.write("| " + " | ".join(header) + " |\n")
        fh.write("|" + "|".join(" --- " for _ in header) + "|\n")
        for row in body:
            fh.write("| " + " | ".join(row) + " |\n")


def render_tables(report: EvaluationReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write table1..table5 and figure1 under out_dir/tables."""
    if fmt not in ("csv", "md", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    tables_dir = Path(out_dir) / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    tables = _all_tables(report)
    written: list[Path] = []
    if fmt == "json":
        path = tables_dir / "tables.json"
        payload = {name: {"header": rows[0], "rows": rows[1:]} for name, rows in tables.items()}
        with atomic_text(path) as fh:
            json.dump(payload, fh, ensure_ascii=False, indent=2)
            fh.write("\n")
        written.append(path)
        return written
    for name, rows in tables.items():
        path = tables_dir / f"{name}.{fmt}"
        if fmt == "csv":
            _write_csv(rows, path)
        else:
            _write_markdown(rows, path)
        written.append(path)
    return written
