"""The part map and a corpus counted in parts. ``parts.map_parts`` must
give what the loop in one process gives, results, standard error and
exceptions included, whatever its children do. Byte ranges of a corpus
cut just past blank lines, each counted by ``extract`` in its own
process, must give what one part gives, messages included. Splitting is
forced here by lowering ``corpus.PART_BYTES`` and raising the CPU count,
in the test process or in a fresh one."""

import errno
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from eventnouns import cli, corpus, features
from eventnouns.corpus import CorpusParseError, read_tagged_file, split_corpus
from eventnouns.parts import map_parts, workers

SRC = str(Path(__file__).resolve().parents[1] / "src")
BOM = "﻿"

# sentences that fire cues, with a comment and a whitespace-only line
# around blank lines; each line of a sentence ends in one line ending
SENTENCES = [
    ["during\tduring\tADP", "the\tthe\tDET", "war\twar\tNOUN"],
    ["# a comment after a blank line", "the\tthe\tDET", "war\twar\tNOUN",
     "happened\thappen\tVERB"],
    ["a\ta\tDET", "map\tmap\tNOUN", "# a comment before a blank line"],
    ["the\tthe\tDET", "storm\tstorm\tNOUN", "war\twar\tNOUN", "started\tstart\tVERB"],
    [" \t ", "the\tthe\tDET", "map\tmap\tNOUN", "of\tof\tADP", "them\tthey\tPRON"],
    ["after\tafter\tADP", "the\tthe\tDET", "long\tlong\tADJ", "storm\tstorm\tNOUN"],
    ["the\tthe\tDET", "war\twar\tNOUN", "took\ttake\tVERB", "place\tplace\tVERB"],
]


def corpus_text(endings, sentences=SENTENCES, mark=""):
    """The sentences with each line ending taken in turn from ``endings``,
    a blank line between two sentences and none after the last."""
    ends = iter(endings * 100)
    blocks = ["".join(line + next(ends) for line in lines) for lines in sentences]
    return mark + next(ends).join(blocks)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return str(path)


def blank_lines(data: bytes) -> list[tuple[int, int]]:
    """The byte range of every ``\\n\\n`` or ``\\n\\r\\n``."""
    return sorted((at, at + len(pair)) for pair in (b"\n\n", b"\n\r\n")
                  for at in range(len(data)) if data.startswith(pair, at))


def blank_line_ends(data: bytes) -> list[int]:
    return sorted({end for _, end in blank_lines(data)})


def line_count(data: bytes) -> int:
    """The lines of ``data`` with universal newlines, the last one ended."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n")


def force_parts(monkeypatch, cpus=1000):
    """Count every corpus in as many parts as it has blank lines, up to
    ``cpus``, and return the pids of the children forked."""
    monkeypatch.setattr(corpus, "PART_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    return record_forks(monkeypatch)


def record_forks(monkeypatch):
    """The pids of the children that os.fork makes from now on."""
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


ENDINGS = {
    "lf": ["\n"],
    "crlf": ["\r\n"],
    "mixed": ["\n", "\r\n", "\n", "\r", "\r\n", "\r\n", "\n"],
}


# --- the part map on a plain function -----------------------------------------

def test_map_parts_gives_results_in_item_order_from_other_processes(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)),
                        raising=False)
    forked = record_forks(monkeypatch)
    results = map_parts(lambda n: (n * n, os.getpid()), range(workers()))
    assert [square for square, _ in results] == [n * n for n in range(6)]
    assert [pid for _, pid in results] == [os.getpid(), *forked]
    assert len(set(forked)) == 5
    assert_no_child_left()


def test_map_parts_writes_each_items_stderr_in_item_order(tmp_path, capsys):
    finished = tmp_path / "finished"

    def later_ends_first(n):
        print(f"item {n} begins", file=sys.stderr)
        time.sleep((3 - n) * 0.2)
        print(f"item {n} ends", file=sys.stderr)
        with open(finished, "a") as fh:
            fh.write(f"{n}\n")
        return n

    assert map_parts(later_ends_first, range(4)) == [0, 1, 2, 3]
    assert finished.read_text().split() == ["3", "2", "1", "0"]
    assert capsys.readouterr().err == "".join(
        f"item {n} begins\nitem {n} ends\n" for n in range(4))
    assert_no_child_left()


@pytest.mark.parametrize("fault", ["raise", "kill", "fork"])
def test_map_parts_computes_here_an_item_with_no_result(monkeypatch, capsys, fault):
    parent, computed_here, forks = os.getpid(), [], []

    def square(n):
        print(f"item {n}", file=sys.stderr)
        if os.getpid() == parent:
            computed_here.append(n)
        elif n == 2 and fault == "raise":
            raise TypeError("a fault")
        elif n == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return n * n

    fork = os.fork

    def second_fork_fails():
        forks.append(len(forks) + 1)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    if fault == "fork":
        monkeypatch.setattr(os, "fork", second_fork_fails)
    assert map_parts(square, range(4)) == [0, 1, 4, 9]
    assert computed_here == [0, 2]
    assert forks == ([1, 2, 3] if fault == "fork" else [])
    assert capsys.readouterr().err == "item 0\nitem 1\nitem 2\nitem 3\n"
    assert_no_child_left()


def test_map_parts_raises_what_the_loop_raises(capsys):
    def fails_on_two(n):
        print(f"item {n}", file=sys.stderr)
        if n == 2:
            raise TypeError(f"a fault in item {n}")
        return n

    with pytest.raises(TypeError, match="a fault in item 2"):
        map_parts(fails_on_two, range(5))
    assert capsys.readouterr().err == "item 0\nitem 1\nitem 2\n"
    assert_no_child_left()


def test_map_parts_of_one_item_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert map_parts(lambda n: n + 1, [1]) == [2]
    assert map_parts(lambda n: n + 1, []) == []


# --- reading byte ranges ------------------------------------------------------

@pytest.mark.parametrize("mark", ["", BOM], ids=["plain", "bom"])
@pytest.mark.parametrize("endings", list(ENDINGS))
def test_ranges_cut_at_any_blank_line_read_as_the_whole(tmp_path, endings, mark):
    path = write(tmp_path, "c.tsv", corpus_text(ENDINGS[endings], mark=mark))
    whole = list(read_tagged_file(path))
    data = Path(path).read_bytes()
    cuts = blank_line_ends(data)
    assert len(cuts) >= 3
    for cut in cuts:
        head = list(read_tagged_file(path, end=cut))
        tail = list(read_tagged_file(path, start=cut))
        assert head + tail == whole, cut
    every = [0, *cuts, None]
    assert [s for start, end in zip(every, every[1:])
            for s in read_tagged_file(path, start=start, end=end)] == whole


def test_split_corpus_cuts_just_past_the_first_blank_line_at_or_past_each_share(
        tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "PART_BYTES", 1)
    path = write(tmp_path, "c.tsv", corpus_text(["\r\n", "\n"]))
    data = Path(path).read_bytes()
    pairs = blank_lines(data)
    for parts in range(2, len(data), 7):
        targets = [k * len(data) // parts for k in range(1, parts)]
        cuts = sorted({min((end for start, end in pairs if start >= target),
                           default=len(data)) for target in targets} - {len(data)})
        runs = split_corpus([path], parts)
        assert runs == [[(path, start, end)] for start, end in zip([0, *cuts], [*cuts, None])]


def test_split_corpus_spans_files_and_keeps_a_file_without_blank_line_whole(
        tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "PART_BYTES", 1)
    first = write(tmp_path, "a.tsv", corpus_text(["\n"]))
    lone_cr = write(tmp_path, "b.tsv", corpus_text(["\r"]))
    paths = [first, lone_cr, first]
    runs = split_corpus(paths, 1000)
    assert [segment for run in runs for segment in run if segment[0] == lone_cr] == [
        (lone_cr, 0, None)]
    # the runs read one after another are the files read one after another
    assert [s for run in runs for path, start, end in run
            for s in read_tagged_file(path, start=start, end=end)] == [
        s for path in paths for s in read_tagged_file(path)]
    assert split_corpus(paths, 1) == [[(p, 0, None) for p in paths]]


def test_a_range_numbers_its_lines_in_the_whole_file(tmp_path, caplog):
    data = (corpus_text(["\n", "\r\n", "\r"]) + "\r\n\r\nbad line\r\nwar\twar\tXYZ\n").encode()
    path = write(tmp_path, "c.tsv", data)
    bad = line_count(data) - 1
    cut = blank_line_ends(data)[-1]
    with pytest.raises(CorpusParseError) as exc:
        list(read_tagged_file(path, start=cut))
    assert str(exc.value) == f"{path}: line {bad}: expected 3 tab-separated fields, got 1"
    list(read_tagged_file(path, start=cut, strict=False))
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: skipping corpus line {bad}: expected 3 tab-separated fields, got 1",
        f"{path}: skipping corpus line {bad + 1}: unknown coarse tag: 'XYZ'"]


def test_a_range_numbers_a_line_that_is_not_utf8_in_the_whole_file(tmp_path):
    data = corpus_text(["\r\n", "\r"]).encode("utf-8") + b"\n\ncaf\xe9\tcaf\xe9\tNOUN\n"
    path = write(tmp_path, "c.tsv", data)
    line = line_count(data)
    for start in blank_line_ends(data):
        with pytest.raises(ValueError) as exc:
            list(read_tagged_file(path, start=start))
        assert str(exc.value) == (f"{path}: line {line}: 'utf-8' codec can't decode "
                                  "byte 0xe9 in position 3: invalid continuation byte")


# --- the CLI in parts ---------------------------------------------------------

def gold_file(tmp_path):
    return write(tmp_path, "gold.csv", "lemma,label\nwar,EVENT\nstorm,EVENT\n"
                                       "map,NON_EVENT\nplace,NON_EVENT\n")


@pytest.mark.parametrize("flags", [
    ["--lang", "EN"],
    ["--lang", "EN", "--relative"],
    ["--lang", "EN", "--last-noun"],
    ["--lang", "EN", "--lemmas", "LEMMAS"],
], ids=["counts", "relative", "last-noun", "lemmas"])
@pytest.mark.parametrize("endings", list(ENDINGS))
def test_extract_in_parts_writes_what_one_part_writes(tmp_path, capsys, monkeypatch,
                                                      endings, flags):
    text = corpus_text(ENDINGS[endings])
    corpora = [write(tmp_path, "a.tsv", BOM + text),
               write(tmp_path, "b.tsv", corpus_text(ENDINGS[endings], SENTENCES[::-1]))]
    lemmas = write(tmp_path, "lemmas.txt", "war\nstorm\nmap\nplace\nthey\n")
    flags = [lemmas if flag == "LEMMAS" else flag for flag in flags]
    targets = [] if lemmas in flags else ["--gold", gold_file(tmp_path)]
    argv = ["extract", *flags, *targets, "--corpus", corpora[0], "--corpus", corpora[1]]
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    code, out, err = run([*argv, "--out", str(one)], capsys)
    assert code == 0 and err == "" and "nonzero vectors: 3\n" in out
    forked = force_parts(monkeypatch)
    assert run([*argv, "--out", str(many)], capsys) == (
        0, out.replace(str(one), str(many)), "")
    assert many.read_bytes() == one.read_bytes()
    cuts = sum(len(blank_line_ends(Path(p).read_bytes())) for p in corpora)
    assert len(forked) == cuts + 1  # every blank line is a cut, and so is the first file's end
    assert_no_child_left()


def test_evaluate_from_a_corpus_in_parts(tmp_path, capsys, monkeypatch):
    text = "\n\n".join([corpus_text(["\n"])] * 6)
    argv = ["evaluate", "--corpus", write(tmp_path, "c.tsv", text),
            "--gold", gold_file(tmp_path), "--seed", "1", "--k", "2", "--min-leaf", "1"]
    assert run([*argv, "--out", str(tmp_path / "one")], capsys)[0] == 0
    force_parts(monkeypatch, cpus=3)
    assert run([*argv, "--out", str(tmp_path / "many")], capsys)[0] == 0
    for name in ("report.txt", "predictions.csv", "curve.csv"):
        assert ((tmp_path / "many" / name).read_bytes()
                == (tmp_path / "one" / name).read_bytes())
    assert_no_child_left()


def test_a_lone_cr_corpus_stays_one_part(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "c.tsv", corpus_text(["\r"]))
    argv = ["extract", "--corpus", path, "--gold", gold_file(tmp_path)]
    assert run([*argv, "--out", str(tmp_path / "one.csv")], capsys)[0] == 0
    assert force_parts(monkeypatch) == []
    assert run([*argv, "--out", str(tmp_path / "many.csv")], capsys)[0] == 0
    assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def bad_sentences(*bad):
    """SENTENCES with a malformed line put into the sentences at ``bad``."""
    return [lines + ["bad line"] if i in bad else lines for i, lines in enumerate(SENTENCES)]


@pytest.mark.parametrize("bad", [(5,), (2, 5), (0,), (0, 6)],
                         ids=["later-part", "two-parts", "first-part", "first-and-last"])
def test_strict_error_in_parts_is_the_one_part_error(tmp_path, capsys, monkeypatch, bad):
    path = write(tmp_path, "c.tsv", corpus_text(["\n", "\r\n"], bad_sentences(*bad)))
    argv = ["extract", "--corpus", path, "--gold", gold_file(tmp_path),
            "--out", str(tmp_path / "d.csv")]
    one = run(argv, capsys)
    assert one[0] == 1 and one[2].startswith(f"corpus error: {path}: line ")
    forked = force_parts(monkeypatch)
    assert run(argv, capsys) == one
    assert len(forked) == len(SENTENCES) - 1
    assert not (tmp_path / "d.csv").exists()
    assert_no_child_left()


def test_non_utf8_line_in_a_later_part_is_the_one_part_error(tmp_path, capsys,
                                                             monkeypatch):
    data = corpus_text(["\r\n"]).encode("utf-8") + b"\r\n\r\ncaf\xe9\tcaf\xe9\tNOUN\r\n"
    path = write(tmp_path, "c.tsv", data)
    argv = ["extract", "--corpus", path, "--gold", gold_file(tmp_path),
            "--out", str(tmp_path / "d.csv")]
    one = run(argv, capsys)
    assert one == (1, "", f"error: {path}: line {line_count(data)}: 'utf-8' codec can't "
                          "decode byte 0xe9 in position 3: invalid continuation byte\n")
    forked = force_parts(monkeypatch)
    assert run(argv, capsys) == one
    assert len(forked) == len(blank_line_ends(data))
    assert_no_child_left()


FORCED = ("import os; from eventnouns import cli, corpus; corpus.PART_BYTES = 1; "
          "os.sched_getaffinity = lambda pid: set(range(1000)); cli.main_entry()")


ONE = "from eventnouns.cli import main_entry; main_entry()"


def cli_process(code, *argv):
    """The CLI run by ``code`` in a fresh process; a run that hangs fails."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=30)


def test_lenient_warnings_in_parts_come_in_file_order(tmp_path):
    first = write(tmp_path, "a.tsv", corpus_text(["\n", "\r\n"], bad_sentences(0, 3, 6)))
    second = write(tmp_path, "b.tsv", corpus_text(["\r\n"], bad_sentences(1, 4)))
    argv = ["extract", "--lenient", "--corpus", first, "--corpus", second,
            "--gold", gold_file(tmp_path), "--out", str(tmp_path / "d.csv")]
    one = cli_process(ONE, *argv)
    assert one.returncode == 0
    assert one.stderr.count("skipping corpus line") == 5
    assert one.stderr.index(first) < one.stderr.index(second)
    many = cli_process(FORCED, *argv)
    assert (many.returncode, many.stdout, many.stderr) == (0, one.stdout, one.stderr)


def test_strict_error_of_a_fresh_process_in_parts(tmp_path):
    path = write(tmp_path, "c.tsv", corpus_text(["\r\n"], bad_sentences(4, 6)))
    argv = ["extract", "--corpus", path, "--gold", gold_file(tmp_path),
            "--out", str(tmp_path / "d.csv")]
    one = cli_process(ONE, *argv)
    many = cli_process(FORCED, *argv)
    assert one.returncode == 1 and one.stderr.startswith(f"corpus error: {path}: line 2")
    assert (many.returncode, many.stdout, many.stderr) == (1, "", one.stderr)


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_a_malformed_line_before_a_line_that_is_not_utf8_comes_first(tmp_path, lenient):
    # both lines in the first 8 KB, which a text file decodes at once
    data = (corpus_text(["\n"], bad_sentences(2)).encode("utf-8")
            + b"\n\n" + corpus_text(["\n"]).encode("utf-8") + b"\n\ncaf\xe9\tcaf\xe9\tNOUN\n")
    path = write(tmp_path, "c.tsv", data)
    argv = ["extract", "--corpus", path, "--gold", gold_file(tmp_path),
            "--out", str(tmp_path / "d.csv"), *(["--lenient"] if lenient else [])]
    one = cli_process(ONE, *argv)
    bad = (f"{path}: line {line_count(data[:data.index(b'bad line')]) + 1}: "
           "expected 3 tab-separated fields, got 1")
    if lenient:
        assert one.stderr == (f"{bad.replace(': line', ': skipping corpus line')}\n"
                              f"error: {path}: line {line_count(data)}: 'utf-8' codec "
                              "can't decode byte 0xe9 in position 3: invalid continuation byte\n")
    else:
        assert one.stderr == f"corpus error: {bad}\n"
    many = cli_process(FORCED, *argv)
    assert (one.returncode, many.returncode) == (1, 1)
    assert (many.stdout, many.stderr) == (one.stdout, one.stderr)


@contextmanager
def fed_fifo(tmp_path, name, data: bytes):
    """A named pipe that a thread writes ``data`` to once a reader opens it."""
    path = tmp_path / name
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at an error
            pass

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        yield str(path)
    finally:
        if feeder.is_alive():  # never opened: a reader that gives up lets it end
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        feeder.join(10)
        path.unlink()
    assert not feeder.is_alive()


def piped_runs(tmp_path, data: bytes, argv) -> Iterator[subprocess.CompletedProcess]:
    """The CLI run with ``argv`` in one part, then in forced parts, with
    each ``PIPE`` in it a named pipe fed ``data``; each run is yielded as
    it ends, before the next overwrites its output."""
    for code in (ONE, FORCED):
        with fed_fifo(tmp_path, "q", data) as pipe:
            yield cli_process(code, *(pipe if arg == "PIPE" else arg for arg in argv))


def test_a_piped_corpus_that_is_not_utf8_reports_the_line(tmp_path):
    data = b"the\tthe\tDET\ncaf\xe9\tcaf\xe9\tNOUN\n"
    for run_ in piped_runs(tmp_path, data, ["extract", "--corpus", "PIPE", "--gold",
                                            gold_file(tmp_path), "--out", str(tmp_path / "d.csv")]):
        assert (run_.returncode, run_.stdout, run_.stderr) == (
            1, "", f"error: {tmp_path / 'q'}: line 2: 'utf-8' codec can't decode byte 0xe9 "
                   "in position 3: invalid continuation byte\n")
    assert not (tmp_path / "d.csv").exists()


def test_a_piped_gold_file_that_is_not_utf8_is_an_error_at_once(tmp_path):
    data = b"lemma,label\nwar,EVENT\ncaf\xe9,EVENT\n"
    corpus = write(tmp_path, "c.tsv", corpus_text(["\n"]))
    for run_ in piped_runs(tmp_path, data, ["extract", "--corpus", corpus, "--gold", "PIPE",
                                            "--out", str(tmp_path / "d.csv")]):
        assert (run_.returncode, run_.stdout, run_.stderr) == (
            1, "", f"error: {tmp_path / 'q'}: 'utf-8' codec can't decode byte 0xe9 "
                   f"in position {data.index(0xe9)}: invalid continuation byte\n")


@pytest.mark.parametrize("before", [0, 1], ids=["alone", "after-a-file"])
def test_a_piped_corpus_reads_as_its_file(tmp_path, before):
    text = corpus_text(["\n", "\r\n"])
    first = write(tmp_path, "a.tsv", BOM + text)
    copy = write(tmp_path, "b.tsv", BOM + text)
    argv = ["extract", "--gold", gold_file(tmp_path), *["--corpus", first] * before]
    want = cli_process(ONE, *argv, "--corpus", copy, "--out", str(tmp_path / "want.csv"))
    assert want.returncode == 0
    for got in piped_runs(tmp_path, (BOM + text).encode("utf-8"),
                          [*argv, "--corpus", "PIPE", "--out", str(tmp_path / "got.csv")]):
        assert (got.returncode, got.stderr) == (0, "")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def in_children_only(monkeypatch, fault):
    """Make ``features.count_features`` call ``fault()`` first in every
    process but this one."""
    parent = os.getpid()
    count_features = features.count_features

    def counting(*args, **kwargs):
        if os.getpid() != parent:
            fault()
        return count_features(*args, **kwargs)

    monkeypatch.setattr(features, "count_features", counting)


def assert_one_part_result(tmp_path, capsys, monkeypatch, cpus, break_parts):
    """Extract in one part, then in ``cpus`` forced parts after
    ``break_parts()``: the exit code, stdout, stderr and dataset match, and
    no child is left."""
    path = write(tmp_path, "c.tsv", corpus_text(["\n", "\r\n"]))
    argv = ["extract", "--corpus", path, "--gold", gold_file(tmp_path), "--out"]
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    code, out, err = run([*argv, str(one)], capsys)
    assert (code, err) == (0, "")
    forked = force_parts(monkeypatch, cpus=cpus)
    break_parts()
    assert run([*argv, str(many)], capsys) == (0, out.replace(str(one), str(many)), "")
    assert many.read_bytes() == one.read_bytes()
    assert_no_child_left()
    return forked


def test_a_part_whose_child_is_killed_is_counted_by_the_parent(tmp_path, capsys,
                                                                monkeypatch):
    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    forked = assert_one_part_result(tmp_path, capsys, monkeypatch, 2,
                                    lambda: in_children_only(monkeypatch, die))
    assert len(forked) == 1


def test_a_small_corpus_forks_no_process(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    path = write(tmp_path, "c.tsv", corpus_text(["\n"]) * 2)
    assert run(["extract", "--corpus", path, "--gold", gold_file(tmp_path),
                "--out", str(tmp_path / "d.csv")], capsys)[0] == 0


@pytest.mark.parametrize("cpus, size, parts", [
    (2, 4_300_000, 2), (8, 3_800_000, 3), (4, (1 << 20) - 1, 1), (1, 10 << 20, 1),
])
def test_part_count_is_one_per_cpu_with_a_mebibyte_each(tmp_path, monkeypatch,
                                                        cpus, size, parts):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    path = write(tmp_path, "c.tsv", b"\n" * size)  # a blank line at every byte
    assert len(split_corpus([path], workers())) == parts


def test_part_count_is_one_without_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork")
    assert workers() == 1


def test_part_count_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert workers() == 3


def fault():
    raise TypeError("a fault")


def test_a_fault_only_in_a_child_gives_the_one_part_result(tmp_path, capsys,
                                                           monkeypatch):
    assert_one_part_result(tmp_path, capsys, monkeypatch, 2,
                           lambda: in_children_only(monkeypatch, fault))


def test_a_fault_in_every_process_is_the_one_part_fault(tmp_path, monkeypatch):
    def faulty(*args, **kwargs):
        fault()

    monkeypatch.setattr(features, "count_features", faulty)
    argv = ["extract", "--corpus", write(tmp_path, "c.tsv", corpus_text(["\n"])),
            "--gold", gold_file(tmp_path), "--out", str(tmp_path / "d.csv")]
    with pytest.raises(TypeError) as one:
        cli.main(argv)
    force_parts(monkeypatch, cpus=2)
    with pytest.raises(TypeError) as many:
        cli.main(argv)
    assert str(many.value) == str(one.value) == "a fault"
    assert not (tmp_path / "d.csv").exists()
    assert_no_child_left()


def test_a_part_whose_fork_fails_is_counted_by_the_parent(tmp_path, capsys,
                                                          monkeypatch):
    calls = []

    def fail_the_second_of_three_forks():
        fork = os.fork

        def failing_fork():
            calls.append(len(calls) + 1)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)

    fds = sorted(os.listdir("/proc/self/fd"))
    forked = assert_one_part_result(tmp_path, capsys, monkeypatch, 4,
                                    fail_the_second_of_three_forks)
    assert (calls, len(forked)) == ([1, 2, 3], 2)
    assert sorted(os.listdir("/proc/self/fd")) == fds
