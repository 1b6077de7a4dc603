"""The benchmark's traced replay (``perfbench/replay.py``) must keep running
against the package: it calls public functions and patches
``features.match_sentence``, and its output files must equal the CLI's."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from eventnouns.cli import main

ROOT = Path(__file__).resolve().parents[1]
REPLAY = str(ROOT / "perfbench" / "replay.py")


def files_under(directory: Path) -> dict[str, bytes]:
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def commands(inputs: Path, out: Path) -> list[list[str]]:
    dataset = str(out / "dataset.csv")
    model = str(out / "model.json")
    return [
        ["extract", "--lang", "EN", "--corpus", str(inputs / "corpus.tsv"),
         "--gold", str(inputs / "gold.csv"), "--out", dataset],
        ["evaluate", "--dataset", dataset, "--seed", "3", "--threshold", "0.8",
         "--out", str(out / "eval")],
        ["train", "--dataset", dataset, "--out", model],
        ["classify", "--model", model, "--dataset", dataset,
         "--out", str(out / "lexicon.csv")],
    ]


def test_replay_writes_the_cli_outputs(tmp_path, capsys):
    inputs = tmp_path / "synth"
    assert main(["synth", "--lang", "EN", "--n-event", "15", "--n-non-event", "15",
                 "--occ-min", "3", "--occ-max", "8", "--seed", "5",
                 "--out", str(inputs)]) == 0
    cli_out, replay_out = tmp_path / "cli", tmp_path / "replay"
    for out in (cli_out, replay_out):
        out.mkdir()
    for argv in commands(inputs, cli_out):
        assert main(argv) == 0
    capsys.readouterr()

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    counts = {}
    for argv in [["setup", "EN"], *commands(inputs, replay_out)]:
        spans = tmp_path / "spans.json"
        result = subprocess.run([sys.executable, REPLAY, str(spans), *argv],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        counts.update(json.loads(spans.read_text())["counts"])

    assert files_under(replay_out) == files_under(cli_out)
    with open(inputs / "drawlog.csv", encoding="utf-8", newline="") as fh:
        draws = list(csv.DictReader(fh))
    assert counts["corpus.sentences"] == len(draws)
    assert counts["cues.target_hits"] == sum(1 for d in draws if d["cue_id"])
