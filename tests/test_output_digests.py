"""Every output file of four pinned CLI runs, by sha256.

A change that means to keep the program's outputs as they are must leave
every digest below where it is; a change that moves an output on purpose
updates the digest here and says why.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from click.testing import CliRunner

from lexiforge.cli import main

from conftest import DATA_DIR

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "planted/report.json": "a3afe3bca3a5c5610983f051227199d4202881a50974fd7e7e85c1635a38e387",
    "planted/alignments.jsonl": "aae4000af6caffc3791328b521c8e2e17e259ac09a6f6a43e8d78f19a1f6f77f",
    "planted/polysemy_pairs.jsonl": "aa476212e0dc6f0823f7eed1c04a0f3652ce750294adbc4834bb2d56e5971140",
    "planted/findings.jsonl": "7e7c4535c1808a81277c90ec487425bfa72b0df4a7be42244ab898cbf8646969",
    "fixture20/report.json": "ec85fd1314ab0e963c22039d0ec1199786f209c25092a5e7af75be6d31ff6a9e",
    "fixture20/alignments.jsonl": "7d3f045b1f2d06abd120370bd445109777a494ec2d9b4b58d6a2eab2fa56ba55",
    "fixture20/polysemy_pairs.jsonl": "4fbcd9eb9d04dabb90c74f6ca6f0f67a694d461dd08d7ff202d5baa31b675a9f",
    "fixture20/findings.jsonl": "d8c26b546dbf52eb8789075ae0a87b67e70f0a615841607f976609c5d4c37fb1",
    "bench2k/report.json": "45a02cd3113dd474aa7d9ade391b9dbb526819c710a23ff3768abf2170c6c1eb",
    "bench2k/alignments.jsonl": "51ca8a197b12338a40155dc5b95393a9d16b10e94dc2a9f23be2eb999a766ad9",
    "bench2k/polysemy_pairs.jsonl": "58b07304ac6525ef69ca9421d0745135a9e3666283dfb57a55a807273d2bff8a",
    "bench2k/findings.jsonl": "a2ca5042acde69606d69691a6457c35772c26a15382f743131f0b80fd4660e8b",
    "generate/dictionary.jsonl": "a7dedf7d3ff7457cd2c95f6ab31acefd199f144485c271c658257cd88cac396f",
    "generate/failures.jsonl": "046404d4ddb4933969469b5cf69f6f42a35fe784d3546b899a67a3ebc8d921a1",
}


def perfbench_fixtures():
    spec = importlib.util.spec_from_file_location("perfbench_fixtures", ROOT / "perfbench" / "fixtures.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def invoke(*args: str) -> None:
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output


def evaluate(out: Path, generated: Path, gold: Path, config: Path, failures: Path | None = None) -> None:
    extra = ("--failures", str(failures)) if failures else ()
    invoke(
        "evaluate", "--generated", str(generated), "--gold", str(gold), "--embedder", "deterministic",
        "--config", str(config), "--out", str(out), *extra,
    )


def test_every_output_keeps_its_pinned_digest(tmp_path):
    evaluate(
        tmp_path / "planted", DATA_DIR / "planted_generated.jsonl", DATA_DIR / "planted_gold.jsonl",
        DATA_DIR / "eval_config.ini", DATA_DIR / "planted_failures.jsonl",
    )
    evaluate(
        tmp_path / "fixture20", DATA_DIR / "fixture20_generated.jsonl", DATA_DIR / "fixture20_gold.jsonl",
        DATA_DIR / "eval_config.ini",
    )
    inputs = tmp_path / "bench2k-inputs"
    fixtures = perfbench_fixtures()
    fixtures.build_evaluate(inputs, 3, 2000, 0.02, "deterministic")
    (inputs / "config.ini").write_text(f"[embedding]\ndimension = {fixtures.DIMENSION}\n", encoding="utf-8")
    evaluate(
        tmp_path / "bench2k", inputs / "generated.jsonl", inputs / "gold.jsonl", inputs / "config.ini",
        inputs / "failures.jsonl",
    )
    invoke(
        "generate", "--lemmas", str(DATA_DIR / "five_lemmas.txt"), "--config", str(DATA_DIR / "stub_config.ini"),
        "--out", str(tmp_path / "generate" / "dictionary.jsonl"),
        "--failures", str(tmp_path / "generate" / "failures.jsonl"),
    )
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED}
    assert digests == PINNED
