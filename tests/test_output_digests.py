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
    "planted/report.json": "11d1f79c05fa607bf205d215c93946cd7a581d5e87d99f72ea343ea6d4188643",
    "planted/alignments.jsonl": "f338afe2373d239fb17ba7e8dac94632ac0bc3ee9c6c6901f4c3c3acf1eb9bc1",
    "planted/polysemy_pairs.jsonl": "ff575d438d10caaf1aa83f7c56fdd364595a6570ad7d7c704cbaa3f9f64d045d",
    "planted/findings.jsonl": "4cfbc24a89f80fb389063e9024aac3ba1171ce424ab8535636376c229d581208",
    "fixture20/report.json": "2586c45e70f12bee639373f95f990635621925350e7059cc604d367c88ac3bf1",
    "fixture20/alignments.jsonl": "ae5403eb50bb9376ddd7733d41854592599ee328bf96cec8920fdde30d9145f6",
    "fixture20/polysemy_pairs.jsonl": "d82f1ff78bf361b6fa72a3adc539b69f1fdbcddaf786f672b6b82cd0c5bb75ec",
    "fixture20/findings.jsonl": "427f60998377878e153a2726ae895f2915d16dfb42508f559823865f0b840752",
    "bench2k/report.json": "93b44483c348be56f5f57d9506835f5b0cae4af5b7c68fb4e1c4039855cbe75c",
    "bench2k/alignments.jsonl": "1d0e248c543a7d9ac08fdd8cb91a91dad2abea31942107b638f4dc17353a4fd1",
    "bench2k/polysemy_pairs.jsonl": "040b2efc7307ab0f3730bcbeef91fc2f5073cd41fefa79708d682c7c96db8326",
    "bench2k/findings.jsonl": "461362dafa6beb6adaeb0c7cfd67bf4e5fdf761779979f4583b49b0c5df0b0fe",
    "generate/dictionary.jsonl": "5e346e04ea8b8671c555ab304c4b9af06b2f9138f3e19a19eda9f3e0f7e40ff1",
    "generate/failures.jsonl": "0404fe36843c857b766dbfa0b9ad5ff9d53f00564fc7634afc7dc920a6c7532a",
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
