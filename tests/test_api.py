"""The package root exports exactly the library API the README documents,
and the README's example runs as written."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import eventnouns

README = Path(__file__).resolve().parent.parent / "README.md"

CORPUS = (
    "during\tduring\tADP\nthe\tthe\tDET\nwar\twar\tNOUN\n\n"
    "the\tthe\tDET\nstorm\tstorm\tNOUN\nhappened\thappen\tVERB\n\n"
    "a\ta\tDET\nmap\tmap\tNOUN\n\n"
    "the\tthe\tDET\nmap\tmap\tNOUN\nof\tof\tADP\nthem\tthey\tPRON\n"
)


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_root_exports_exactly_the_readme_imports():
    tree = ast.parse(library_use_block())
    imported = sorted(alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      and node.module == "eventnouns"
                      for alias in node.names)
    assert sorted(eventnouns.__all__) == imported
    # an export is imported on first access, so read each name the root has
    public = {name for name in dir(eventnouns)
              if not name.startswith("_")
              and not isinstance(getattr(eventnouns, name), types.ModuleType)}
    assert public == set(eventnouns.__all__)


def test_readme_import_runs_in_a_fresh_process():
    # the root imports each export's module on first access
    imports = next(node for node in ast.parse(library_use_block()).body
                   if isinstance(node, ast.ImportFrom))
    code = (ast.unparse(imports) + "; import sys; "
            "print(sorted(m for m in sys.modules if m.startswith('eventnouns.')))")
    src = str(README.parent / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("['eventnouns.corpus', 'eventnouns.cues', 'eventnouns.dtree', "
                             "'eventnouns.evaluation', 'eventnouns.features', "
                             "'eventnouns.gold']\n")


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "corpus.tsv").write_text(CORPUS, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    accuracy, point = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(accuracy) <= 1.0
    assert point.startswith("CurvePoint(threshold=0.8,")
