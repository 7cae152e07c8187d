"""Seeded end-to-end and per-layer benchmark of lexiforge evaluate/generate.

    python3 perfbench/run.py --workload eval-det-5k --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout. Each run builds its inputs from the seed
in a scratch directory, starts the fake services it needs in child
processes, measures the program's set-up several times, then repeats the
timed operation (a fresh worker process each time) for about
``run_seconds`` (BENCHMARK.json), and at least twice. Every repetition's
outputs pass the correctness gate before any number counts, and their
digests must agree across repetitions.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics named in BENCHMARK.json; with ``--trace 1``
one more repetition, after the untraced ones, runs with spans recorded
around the program's public functions, and the object holds the
per-layer metrics instead. The exit
code is non-zero when the gate fails. A full record of the run (the
environment fingerprint, every repetition, the trace summary) is kept
under ``.perfbench/results/`` and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import fixtures  # noqa: E402
from tracer import SCAN  # noqa: E402

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "eval-det-5k": {"kind": "evaluate", "embedder": "deterministic", "keys": 5000, "candidates": 0.02},
    "eval-remote-5k": {"kind": "evaluate", "embedder": "remote", "keys": 5000, "candidates": 0.002},
    "generate-6k": {"kind": "generate", "lemmas": 6400, "batch_size": 32, "concurrency": 2},
}
SETUP_PROBES = 8
# two repetitions at least, so that the digest comparison always has two
# outputs to compare
MIN_REPS = 2
RUN_LIMIT_S = 170.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], share: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Service:
    """A fake service in a child process, stopped and awaited on close."""

    def __init__(self, args: list[str], log: Path):
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fakes.py"), *args], stdout=subprocess.PIPE, stderr=self._log
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"fake service {args[0]} did not start; see {log}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def call(self, path: str, post: bool = False) -> dict:
        request = urllib.request.Request(self.url + path, data=b"{}" if post else None)
        with urllib.request.urlopen(request, timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _fingerprint(seed: int, workload: str, trace: bool) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy

    from lexiforge import _kernels

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": _kernels.BACKEND,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "commit": commit,
    }


# --- correctness gate ----------------------------------------------------


def gate_evaluate(out: Path, truth: dict) -> tuple[list[str], int, dict]:
    """Problems found, join keys without an alignment record, digests."""
    problems = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for name in ("join_size", "skipped_keys", "confusion"):
        if report.get(name) != truth[name]:
            problems.append(f"{name}: {report.get(name)} != {truth[name]}")
    summary = report.get("error_summary", {})
    for category, expected in truth["findings"].items():
        if summary.get(category) != expected:
            problems.append(f"findings[{category}]: {summary.get(category)} != {expected}")
    keys = []
    with open(out / "alignments.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            keys.append((record["lemma"], record["category"]))
    expected = {tuple(k) for k in truth["join_keys"]}
    if len(keys) != len(set(keys)) or set(keys) - expected:
        problems.append("alignments.jsonl holds duplicate or unexpected keys")
    missing = len(expected - set(keys))
    if missing:
        problems.append(f"{missing} join keys have no alignment record")
    with open(out / "findings.jsonl", encoding="utf-8") as fh:
        if sum(1 for _ in fh) != sum(summary.values()):
            problems.append("findings.jsonl does not match the report's error summary")
    digests = {name: _digest(out / name) for name in ("report.json", "alignments.jsonl", "findings.jsonl")}
    return problems, missing, digests


def gate_generate(out: Path, truth: dict, chat: dict) -> tuple[list[str], int, dict]:
    """Problems found, failure-log records, digests.

    ``chat`` is the fake chat service's count of what it served.
    """
    from lexiforge.ingestion import parse_dictionary, parse_failures, write_dictionary

    problems = []
    raw = (out / "dictionary.jsonl").read_text(encoding="utf-8")
    dictionary = parse_dictionary(raw.splitlines(keepends=True), name="generated")
    again = io.StringIO()
    write_dictionary(dictionary, again)
    if again.getvalue() != raw:
        problems.append("dictionary.jsonl does not parse back to itself")
    with open(out / "failures.jsonl", encoding="utf-8") as fh:
        failures = parse_failures(fh)
    entries = [entry.lemma for entry in dictionary.entries()]
    if len(entries) + len(failures) != truth["lemma_count"]:
        problems.append(f"{len(entries)} entries + {len(failures)} failures != {truth['lemma_count']} lemmas")
    if sorted(entries + [f.lemma for f in failures]) != truth["lemmas"]:
        problems.append("entries and failures do not account for each lemma exactly once")
    refused, omitted = set(truth["refused"]), set(truth["omitted"])
    if refused & set(entries) or omitted & set(entries):
        problems.append("a refused or omitted lemma became an entry")
    if any(f.reason.value == "refusal" and f.lemma not in refused for f in failures):
        problems.append("a refusal was recorded for a lemma the provider defined")
    # the faults the workload exists to exercise must have happened
    if chat.get("truncated", 0) < truth["overflowing_batches"]:
        problems.append(f"{chat.get('truncated', 0)} truncated replies < {truth['overflowing_batches']} overflowing batches")
    if not chat.get("http_429"):
        problems.append("the chat service answered no 429")
    digests = {name: _digest(out / name) for name in ("dictionary.jsonl", "failures.jsonl")}
    return problems, len(failures), digests


# --- one workload ----------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.services: dict[str, Service] = {}
        self.runs = 0

    def prepare(self) -> None:
        spec, inputs = self.spec, self.work / "inputs"
        if spec["kind"] == "evaluate":
            self.fixture = fixtures.build_evaluate(inputs, self.seed, spec["keys"], spec["candidates"], spec["embedder"])
            if spec["embedder"] == "remote":
                texts = inputs / "service_texts.json"
                texts.write_text(json.dumps(self.fixture.service_texts, ensure_ascii=False), encoding="utf-8")
                self.services["embed"] = Service(["embed", "--texts", str(texts)], self.work / "embed.log")
                config = (
                    f"[embedding]\nremote_url = {self.services['embed'].url}/embed\n"
                    "remote_batch_size = 64\nremote_timeout = 30\n"
                )
            else:
                config = f"[embedding]\ndimension = {fixtures.DIMENSION}\n"
        else:
            self.fixture = fixtures.build_generate(inputs, self.seed, spec["lemmas"], spec["batch_size"])
            self.services["chat"] = Service(["chat", "--lanes", str(spec["concurrency"])], self.work / "chat.log")
            config = (
                f"[provider]\nkind = openai-chat\nendpoint = {self.services['chat'].url}/v1/chat/completions\n"
                "model = perfbench-lexicographer\ntimeout = 30\n\n"
                f"[generation]\nbatch_size = {spec['batch_size']}\nmax_retries = 3\nretry_backoff = 0.05\n"
                f"max_concurrent_batches = {spec['concurrency']}\n"
                f"max_output_tokens = {self.fixture.truth['max_output_tokens']}\n"
            )
        self.fixture.config.write_text(config, encoding="utf-8")

    def close(self) -> None:
        for service in self.services.values():
            service.close()

    def _worker(self, deadline: float, **extra) -> dict:
        self.runs += 1
        run_dir = self.work / f"run{self.runs}"
        run_dir.mkdir()
        argv = list(self.fixture.argv)
        if self.spec["kind"] == "evaluate":
            argv += ["--out", str(run_dir / "out")]
        else:
            argv += ["--out", str(run_dir / "out" / "dictionary.jsonl"), "--failures", str(run_dir / "out" / "failures.jsonl")]
        spec = {
            "src": str(ROOT / "src"),
            "config": str(self.fixture.config),
            "argv": argv,
            "result": str(run_dir / "result.json"),
            "spans": str(run_dir / "spans.jsonl"),
            "run_id": f"{self.name}-{self.seed}-{self.runs}",
            **extra,
        }
        for service in self.services.values():
            service.call("/reset", post=True)
        spec["spawned"] = time.time()
        (run_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        with open(run_dir / "worker.log", "wb") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(run_dir / "spec.json")],
                stdout=log, stderr=subprocess.STDOUT, timeout=max(1.0, deadline - time.monotonic()),
            )
        if proc.returncode != 0 or not (run_dir / "result.json").exists():
            tail = (run_dir / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"worker failed with exit code {proc.returncode}:\n{tail}")
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
        result["run_dir"] = run_dir
        result["services"] = {name: s.call("/stats") for name, s in self.services.items()}
        return result

    def setup_probe(self, deadline: float) -> float:
        return self._worker(deadline, setup_only=True)["setup_s"]

    def operation(self, deadline: float, trace: bool = False) -> dict:
        """One timed operation, gated; outputs are removed afterwards."""
        result = self._worker(deadline, trace=trace)
        out = result["run_dir"] / "out"
        if result["exit_code"] != 0:
            result.update(problems=[f"exit code {result['exit_code']}"], failed=self.fixture.units, digests={})
        else:
            from lexiforge.exceptions import LexiforgeError

            try:
                if self.spec["kind"] == "evaluate":
                    gated = gate_evaluate(out, self.fixture.truth)
                else:
                    gated = gate_generate(out, self.fixture.truth, result["services"]["chat"])
                result["problems"], result["failed"], result["digests"] = gated
            except (OSError, ValueError, KeyError, TypeError, LexiforgeError) as exc:
                result.update(problems=[f"unreadable output: {exc!r}"], failed=self.fixture.units, digests={})
                shutil.rmtree(out, ignore_errors=True)
                return result
            result["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            if self.spec["kind"] == "generate":
                with open(out / "failures.jsonl", encoding="utf-8") as fh:
                    reasons = [json.loads(line)["reason"] for line in fh]
                result["failure_reasons"] = {r: reasons.count(r) for r in set(reasons)}
        shutil.rmtree(out, ignore_errors=True)
        return result


def end_to_end(load: Workload, setups: list[float], reps: list[dict]) -> dict:
    wall = _median([r["wall_s"] for r in reps])
    attempted = load.fixture.units * len(reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": _median(setups + [r["setup_s"] for r in reps]),
        "wall_s": wall,
        "items_per_s": load.fixture.units / wall,
        "cpu_s": _median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "ok_fraction": (attempted - failed) / attempted,
    }


def per_layer(traced: dict, untraced: list[dict]) -> dict:
    summary = traced["trace"]
    times, counters, selfs = summary["times"], summary["counters"], summary["self_times"]
    embed = traced["services"].get("embed", {})
    chat = traced["services"].get("chat", {})
    calls = summary["provider_calls"]
    c = lambda name: counters.get(name, 0)  # noqa: E731
    t = lambda name: times.get(name, 0.0)  # noqa: E731
    texts, scanned = c("embedding.texts"), c("error_analysis.neighbors_scanned")
    batches = c("generation.prompt.calls")
    reasons = traced.get("failure_reasons", {})
    wall = traced["wall_s"]
    untraced_wall = _median([r["wall_s"] for r in untraced])
    return {
        "embedding.single_calls": c("embedding.single_calls"),
        "embedding.batch_calls": c("embedding.batch_calls"),
        "embedding.texts": texts,
        "embedding.distinct_texts": c("embedding.distinct_texts"),
        "embedding.useful_ratio": c("embedding.distinct_texts") / texts if texts else 0.0,
        "embedding.busy_s": c("embedding.busy_s"),
        "embedding.http_requests": embed.get("requests", 0),
        "embedding.service_s": embed.get("service_s", 0.0),
        "kernels.trigram_calls": c("kernels.trigram.calls"),
        "kernels.trigram_s": c("kernels.trigram.s"),
        "kernels.levenshtein_calls": c("kernels.levenshtein.calls"),
        "kernels.levenshtein_s": c("kernels.levenshtein.s"),
        "error_analysis.candidates": c("error_analysis.candidates"),
        "error_analysis.index_build_s": t("error_analysis.index_build_s"),
        "error_analysis.neighbor_scan_s": t("error_analysis.neighbor_scan_s"),
        "error_analysis.neighbor_scan_self_s": selfs.get(SCAN, 0.0)
        - c("error_analysis.scan_levenshtein_s"),
        "error_analysis.neighbors_scanned": scanned,
        "error_analysis.neighbors_found": c("error_analysis.neighbors_found"),
        "error_analysis.neighbor_yield": c("error_analysis.neighbors_found") / scanned if scanned else 0.0,
        "error_analysis.overcorrection_s": t("error_analysis.overcorrection_s"),
        "error_analysis.fabricated_s": c("error_analysis.fabricated.s"),
        "error_analysis.circularity_calls": c("error_analysis.circularity.calls"),
        "error_analysis.circularity_s": c("error_analysis.circularity.s"),
        "error_analysis.classify_s": t("error_analysis.classify_s"),
        "alignment.align_s": t("alignment.align_s"),
        "alignment.all_pairs_s": t("alignment.all_pairs_s"),
        "ingestion.parse_s": t("ingestion.parse_s"),
        "ingestion.write_s": t("ingestion.write_s"),
        "model.join_s": t("model.join_s"),
        "metrics.s": t("metrics.s"),
        "report.evaluate_s": t("report.evaluate_s"),
        "report.write_s": t("report.write_s"),
        "report.output_bytes": traced.get("output_bytes", 0),
        "generation.batches": batches,
        "generation.run_s": t("generation.run_s"),
        "generation.prompt_s": c("generation.prompt.s"),
        "generation.parse_s": c("generation.parse.s"),
        "generation.retries": max(0, len(calls) - batches) if batches else 0,
        "generation.truncated_replies": c("generation.truncated_replies"),
        "generation.failures.provider_error": reasons.get("provider_error", 0),
        "generation.failures.parse_error": reasons.get("parse_error", 0),
        "generation.failures.refusal": reasons.get("refusal", 0),
        "providers.requests": len(calls),
        "providers.call_p50_s": _percentile(calls, 0.5),
        "providers.call_p90_s": _percentile(calls, 0.9),
        "providers.busy_s": t("providers.busy_s"),
        "providers.max_in_flight": chat.get("max_in_flight", 0),
        "providers.idle_s": chat.get("idle_s", 0.0),
        "providers.http_429": chat.get("http_429", 0),
        "providers.prompt_tokens": c("providers.prompt_tokens"),
        "providers.completion_tokens": c("providers.completion_tokens"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.absent_targets": len(summary["absent"]),
    }


def accounting(name: str, m: dict) -> str:
    """Where the traced run's time went, for the workload's dominant layer."""
    wall = m["trace.wall_s"]
    if name == "eval-det-5k":
        share = m["error_analysis.neighbor_scan_s"] / wall
        return (f"neighbour scan {m['error_analysis.neighbor_scan_s']:.2f}s (self {m['error_analysis.neighbor_scan_self_s']:.2f}s"
                f" + levenshtein) = {share:.0%} of wall {wall:.2f}s")
    if name == "eval-remote-5k":
        return f"embedding busy {m['embedding.busy_s']:.2f}s = {m['embedding.busy_s'] / wall:.0%} of wall {wall:.2f}s"
    lanes = m["providers.max_in_flight"] or 1
    return (f"provider busy {m['providers.busy_s']:.2f}s / {lanes} in flight = "
            f"{m['providers.busy_s'] / lanes:.2f}s against wall {wall:.2f}s")


def run_workload(name: str, seed: int, trace: bool, bench: dict) -> tuple[dict, int]:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    (ROOT / ".perfbench" / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench"))
    load = Workload(name, seed, work)
    fingerprint = _fingerprint(seed, name, trace)
    record: dict = {"env": fingerprint}
    try:
        load.prepare()
        setups = [load.setup_probe(deadline) for _ in range(SETUP_PROBES)]
        reps: list[dict] = []
        measuring = time.monotonic()
        while True:
            reps.append(load.operation(deadline))
            spent = time.monotonic() - measuring
            # leave room for one more repetition (and the traced one)
            if time.monotonic() + spent / len(reps) * (2.5 if trace else 1.5) > deadline:
                break
            if len(reps) >= MIN_REPS and spent + spent / len(reps) > bench["run_seconds"]:
                break
        traced = load.operation(deadline, trace=True) if trace else None
        if traced is not None:
            shutil.copy(traced["run_dir"] / "spans.jsonl", ROOT / ".perfbench" / "results" / f"{name}-s{seed}.spans.jsonl")
    finally:
        load.close()
        shutil.rmtree(work, ignore_errors=True)

    gated = reps + ([traced] if traced else [])
    problems = [p for r in gated for p in r["problems"]]
    if len(gated) < 2:
        problems.append("only one repetition fitted in the time limit, so determinism is unchecked")
    if len({json.dumps(r["digests"], sort_keys=True) for r in gated}) > 1:
        problems.append("output digests differ between repetitions")
    metrics = per_layer(traced, reps) if trace else end_to_end(load, setups, reps)
    names = bench["per_layer" if trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": load.fixture.units * len(gated),
        "failed": sum(r["failed"] for r in gated),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    for r in gated:
        r.pop("run_dir")
    record.update(setups=setups, reps=reps, traced=traced, problems=problems, result=result)
    tag = f"{name}-s{seed}-t{int(trace)}"
    (ROOT / ".perfbench" / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"env": fingerprint}))
    print("digests " + json.dumps(gated[0]["digests"]))
    for problem in problems:
        print(f"GATE FAIL: {problem}")
    if trace:
        print("accounting: " + accounting(name, metrics))
        if traced["trace"]["absent"]:
            print("absent trace targets: " + ", ".join(traced["trace"]["absent"]))
    for key, entry in result["metrics"].items():
        print(f"{name} {key} {entry['value']:.6g} {entry['unit']}")
    return result, 0 if not problems else 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    # accepted so that a runner can pass the measuring time it read from
    # BENCHMARK.json; run_seconds there is the only source of it
    parser.add_argument("--seconds", type=int, help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # exit through the cleanup paths (fakes and workers stopped) when terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "lexiforge" / "__init__.py").is_file():
        sys.exit(f"error: no lexiforge sources under {ROOT / 'src'}; run from the root of a lexiforge checkout")
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is not None and args.seconds != bench["run_seconds"]:
        sys.exit(f"error: --seconds {args.seconds} differs from run_seconds {bench['run_seconds']} in BENCHMARK.json")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result, code = run_workload(name, args.seed, bool(args.trace), bench)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            sys.exit(1)
        status = status or code
        print(json.dumps(result))
    sys.exit(status)


if __name__ == "__main__":
    main()
