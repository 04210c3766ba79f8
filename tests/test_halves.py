"""``halves.both`` and the two commands that split their work with it.

``matrix`` counts the second half of its corpus in a child, and
``sigtest`` reduces side B and tests half of the file pairs in one.
Every call here runs once with the split and once with the one-process
fallback forced (the ``process_path`` fixture), and both must give the
same output, exit code and message.  After every call no child of this
process is left, and nothing from a child reached stdout or stderr.
The tests that count the calls of a function force the one-process
path, where every call is made in this process.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from ruleparse import cli, halves, write_conllu
from ruleparse.halves import both

from conftest import force_path, random_treebank, with_random_tree


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child(parent: int) -> bool:
    return os.getpid() != parent


def test_both_runs_the_second_half_in_a_child_when_it_splits(process_path):
    parent = os.getpid()
    head, tail = both(lambda: ("first", os.getpid()), lambda: ("second", os.getpid()))
    assert head == ("first", parent)
    assert tail[0] == "second"
    assert (tail[1] != parent) == (process_path == "split")
    assert_no_child_left()


def test_an_error_of_the_first_half_kills_the_child(process_path):
    def first():
        raise KeyError("first")

    def second():
        time.sleep(60)
        return "late"

    started = time.monotonic()
    with pytest.raises(KeyError, match="first"):
        both(first, second)
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_a_child_that_fails_leaves_the_second_half_to_this_process(process_path):
    parent = os.getpid()

    def second():
        if in_child(parent):
            raise RuntimeError("in the child")
        return "here"

    assert both(lambda: 1, second) == (1, "here")
    assert_no_child_left()


def test_an_error_of_the_second_half_is_raised_after_the_first_half_ran(process_path):
    ran = []

    def second():
        raise ValueError("second")

    with pytest.raises(ValueError, match="second"):
        both(lambda: ran.append("first"), second)
    assert ran == ["first"]
    assert_no_child_left()


def test_a_child_killed_mid_run_leaves_the_second_half_to_this_process(
        process_path, tmp_path):
    parent = os.getpid()
    pid_file = tmp_path / "child.pid"

    def second():
        if in_child(parent):
            pid_file.write_text(str(os.getpid()))
            time.sleep(60)
        return os.getpid()

    def first():
        # Kill the child while it sleeps in its half.
        if process_path == "split":
            deadline = time.monotonic() + 30
            while not pid_file.exists() or not pid_file.read_text():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
        return "first"

    assert both(first, second) == ("first", parent)
    assert_no_child_left()


def test_a_result_that_does_not_pickle_is_made_again_here(process_path):
    parent = os.getpid()
    _, tail = both(lambda: None, lambda: (lambda: os.getpid()))
    assert tail() == parent
    assert_no_child_left()


def test_nothing_from_the_child_reaches_stdout_or_stderr(process_path, capfd):
    parent = os.getpid()

    def second():
        if in_child(parent):
            print("child stdout")
            print("child stderr", file=sys.stderr)
            os.write(1, b"child fd 1\n")
            os.write(2, b"child fd 2\n")
            raise RuntimeError("child traceback")
        return 2

    # Written but not flushed before the fork: the child must not flush
    # its copy of the buffer.
    sys.stdout.write("once")
    assert both(lambda: 1, second) == (1, 2)
    sys.stdout.flush()
    assert capfd.readouterr() == ("once", "")
    assert_no_child_left()


def test_without_fork_the_halves_run_in_turn(monkeypatch):
    force_path(monkeypatch, "split")
    monkeypatch.delattr(os, "fork")
    order = []
    assert both(lambda: order.append("first") or os.getpid(),
                lambda: order.append("second") or os.getpid()) \
        == (os.getpid(), os.getpid())
    assert order == ["first", "second"]


def test_a_fork_that_fails_leaves_both_halves_to_this_process(monkeypatch):
    force_path(monkeypatch, "split")

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert both(lambda: os.getpid(), lambda: os.getpid()) == (os.getpid(),) * 2


@contextmanager
def a_second_thread():
    """A thread that waits while the block runs, and is gone after it."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join()
        # The system may list the thread for a moment after join returns.
        deadline = time.monotonic() + 10
        while halves._threads() > 1 and time.monotonic() < deadline:
            time.sleep(0.001)


def test_a_process_that_runs_a_thread_does_not_fork(monkeypatch):
    force_path(monkeypatch, "split")
    with a_second_thread():
        assert both(os.getpid, os.getpid) == (os.getpid(),) * 2
    assert_no_child_left()


def test_without_a_thread_list_python_threads_still_stop_the_fork(monkeypatch):
    force_path(monkeypatch, "split")
    listdir = os.listdir

    def no_proc(path="."):
        if str(path).startswith("/proc"):
            raise FileNotFoundError(2, "No such file or directory", path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", no_proc)
    assert both(lambda: 1, os.getpid)[1] != os.getpid()
    assert_no_child_left()
    with a_second_thread():
        assert both(lambda: 1, os.getpid) == (1, os.getpid())


def test_numpy_with_its_blas_threads_is_not_forked():
    # A fresh process with the BLAS library's default thread count.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(halves.__file__)),
                      env.get("PYTHONPATH")]))
    script = (
        "import json, os, numpy\n"
        "from ruleparse import halves\n"
        "halves._cpus = lambda: 2\n"
        "threads = halves._threads()\n"
        "pids = halves.both(os.getpid, os.getpid)\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    reaped = False\n"
        "except ChildProcessError:\n"
        "    reaped = True\n"
        "print(json.dumps([threads, pids, reaped]))\n")
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    threads, (first, second), reaped = json.loads(done.stdout)
    if threads < 2:
        pytest.skip("this numpy started no BLAS thread when imported")
    assert first == second and reaped


@pytest.mark.parametrize("caller", [None, "3"])
def test_the_two_processes_keep_one_blas_thread_while_they_run(
        monkeypatch, process_path, caller):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if caller:
        monkeypatch.setenv("OMP_NUM_THREADS", caller)

    def seen():
        return os.environ.get("OMP_NUM_THREADS")

    split = process_path == "split"
    assert both(seen, seen) == ((caller or "1", caller or "1") if split
                                else (caller, caller))
    assert seen() == caller


# --------------------------------------------------------------------------
# matrix: the corpus split at the first line break past its middle byte.

def sidecar_lines(n: int) -> list[str]:
    """``n`` good sidecar lines of one width, so that a line replaced by
    another of the same width leaves the split point where it was."""
    return [f"{k // 8 + 1:04d}\t{k % 8 + 1:04d}\tev{k % 7}\tNoun+A3sg"
            for k in range(n)]


def write_lines(path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def split_line(path) -> int:
    """The number of the first line of the second half of ``path``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        middle = cli._middle_line_start(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
    return path.read_bytes()[:middle].count(b"\n") + 1


def run_main(capfd, *argv) -> tuple[int, str, str]:
    code = cli.main([str(a) for a in argv])
    out, err = capfd.readouterr()
    assert_no_child_left()
    return code, out, err


def test_matrix_split_point_is_a_line_start_near_the_middle(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    write_lines(corpus, sidecar_lines(400))
    first_tail = split_line(corpus)
    assert 195 <= first_tail <= 205


# A replacement for a line of ``sidecar_lines``, of the same width, and the
# error it gives at line ``n``.
BAD_LINES = {
    "not integers": (lambda good: "x" + good[1:],
                     "sentence ordinal and token id must be integers"),
    "bad morphemes": (lambda good: good[:-9] + "Noun++A3s",
                      "unparseable morpheme sequence 'Noun++A3s'"),
    "position of line 1": (lambda good: "0001\t0001" + good[9:],
                           "duplicate entry for sentence 1 token 1"),
}


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
@pytest.mark.parametrize("where", ["last of the first half", "first of the second half",
                                   "later in the second half"])
def test_matrix_reports_a_bad_line_near_the_split_as_one_process_does(
        tmp_path, capfd, process_path, bad, where):
    lines = sidecar_lines(400)
    corpus = tmp_path / "corpus.tsv"
    write_lines(corpus, lines)
    first_tail = split_line(corpus)
    n = {"last of the first half": first_tail - 1,
         "first of the second half": first_tail,
         "later in the second half": first_tail + 50}[where]
    replace, message = BAD_LINES[bad]
    lines[n - 1] = replace(lines[n - 1])
    write_lines(corpus, lines)
    assert split_line(corpus) == first_tail
    code, out, err = run_main(capfd, "matrix", corpus, "--output", tmp_path / "m.tsv")
    assert (code, out, err) == (2, "", f"error: {corpus}: line {n}: {message}\n")
    assert not (tmp_path / "m.tsv").exists()


def test_matrix_reports_the_first_half_error_when_both_halves_have_one(
        tmp_path, capfd, process_path):
    lines = sidecar_lines(400)
    corpus = tmp_path / "corpus.tsv"
    write_lines(corpus, lines)
    first_tail = split_line(corpus)
    # Line ``first_tail - 2`` is bad in the first half, ``first_tail`` in
    # the second.
    for n, bad in ((first_tail - 2, "bad morphemes"), (first_tail, "not integers")):
        lines[n - 1] = BAD_LINES[bad][0](lines[n - 1])
    write_lines(corpus, lines)
    code, _, err = run_main(capfd, "matrix", corpus)
    assert code == 2
    assert err == (f"error: {corpus}: line {first_tail - 2}: "
                   "unparseable morpheme sequence 'Noun++A3s'\n")


def matrix_output(tmp_path, capfd, corpus) -> str:
    out = tmp_path / "m.tsv"
    assert run_main(capfd, "matrix", corpus, "--cap", 3, "--output", out) == (0, "", "")
    return out.read_text(encoding="utf-8")


def test_matrix_gives_the_same_bytes_on_both_paths_and_any_line_breaks(
        tmp_path, capfd, monkeypatch):
    corpus = tmp_path / "corpus.tsv"
    rng = random.Random(3)
    lines = [f"{k // 8 + 1}\t{k % 8 + 1}\t{rng.choice(['ev', 'göz', 'al'])}\t"
             f"{rng.choice(['Noun+A3sg', 'Noun+A3pl+Gen', 'Verb+Past+A3sg'])}"
             for k in range(300)]
    lines[150:150] = ["# a comment", "", "  "]
    outputs = set()
    for newline in ("\n", "\r\n", "\r"):
        corpus.write_bytes(newline.join(lines).encode("utf-8"))
        for path in ("split", "fallback"):
            force_path(monkeypatch, path)
            outputs.add(matrix_output(tmp_path, capfd, corpus))
    assert len(outputs) == 1


def test_a_matrix_child_killed_mid_run_leaves_its_half_to_this_process(
        tmp_path, capfd, monkeypatch):
    force_path(monkeypatch, "fallback")
    corpus = tmp_path / "corpus.tsv"
    write_lines(corpus, sidecar_lines(400))
    expected = matrix_output(tmp_path, capfd, corpus)
    force_path(monkeypatch, "split")
    parent = os.getpid()
    count = cli.count_morph_sidecar

    def dying_count(*args):
        if in_child(parent):
            os.kill(os.getpid(), signal.SIGKILL)
        return count(*args)

    monkeypatch.setattr(cli, "count_morph_sidecar", dying_count)
    assert matrix_output(tmp_path, capfd, corpus) == expected


def counting_calls(monkeypatch, corpus) -> list:
    """The calls of ``cli.count_morph_sidecar`` from now on, in order:
    whether each read a half or the whole ``corpus``, and the positions
    it counted, or None if it raised."""
    calls = []
    count = cli.count_morph_sidecar

    def counting(source):
        # Only the handle on the whole file has the file's name.
        calls.append(["whole" if getattr(source, "name", None) == str(corpus)
                      else "half", None])
        result = count(source)
        calls[-1][1] = len(result.positions)
        return result

    monkeypatch.setattr(cli, "count_morph_sidecar", counting)
    return calls


def test_a_clean_matrix_corpus_is_counted_once_per_half(tmp_path, capfd, one_process,
                                                        monkeypatch):
    corpus = tmp_path / "corpus.tsv"
    write_lines(corpus, sidecar_lines(400))
    first = split_line(corpus) - 1
    calls = counting_calls(monkeypatch, corpus)
    assert run_main(capfd, "matrix", corpus)[0] == 0
    assert calls == [["half", first], ["half", 400 - first]]


@pytest.mark.parametrize("bad", ["not integers", "position of line 1"])
def test_a_bad_second_half_adds_one_count_of_the_whole_file(
        tmp_path, capfd, one_process, monkeypatch, bad):
    lines = sidecar_lines(400)
    corpus = tmp_path / "corpus.tsv"
    write_lines(corpus, lines)
    first = split_line(corpus) - 1
    n = first + 51
    replace, message = BAD_LINES[bad]
    lines[n - 1] = replace(lines[n - 1])
    write_lines(corpus, lines)
    calls = counting_calls(monkeypatch, corpus)
    code, out, err = run_main(capfd, "matrix", corpus)
    assert (code, out, err) == (2, "", f"error: {corpus}: line {n}: {message}\n")
    # A bad line fails its half; a repeated position is found only when
    # both halves are counted.  Either way one count of the whole follows.
    second = None if bad == "not integers" else 400 - first
    assert calls == [["half", first], ["half", second], ["whole", None]]


@pytest.mark.parametrize("bad", ["not integers", "position of line 1"])
def test_a_bad_second_half_is_not_counted_again_here_before_the_whole_file(
        tmp_path, capfd, monkeypatch, bad):
    # The child counts the second half; this process counts only its own
    # half and then the whole file.
    force_path(monkeypatch, "split")
    lines = sidecar_lines(400)
    corpus = tmp_path / "corpus.tsv"
    write_lines(corpus, lines)
    first = split_line(corpus) - 1
    n = first + 51
    replace, message = BAD_LINES[bad]
    lines[n - 1] = replace(lines[n - 1])
    write_lines(corpus, lines)
    calls = counting_calls(monkeypatch, corpus)
    code, out, err = run_main(capfd, "matrix", corpus)
    assert (code, out, err) == (2, "", f"error: {corpus}: line {n}: {message}\n")
    assert calls == [["half", first], ["whole", None]]


def test_a_second_half_ordinal_of_2_to_the_32_gives_one_matrix_on_both_paths(
        tmp_path, capfd, monkeypatch):
    # Its position does not fit the child's packed positions.
    corpus = tmp_path / "corpus.tsv"
    lines = sidecar_lines(400)
    lines[-1] = f"{2**32}\t0001\tev0\tNoun+A3sg"
    write_lines(corpus, lines)
    outputs = set()
    for path in ("split", "fallback"):
        force_path(monkeypatch, path)
        outputs.add(matrix_output(tmp_path, capfd, corpus))
    assert len(outputs) == 1


# --------------------------------------------------------------------------
# sigtest: side A here, side B in the child; then half the pairs each.

@pytest.fixture
def runs(tmp_path):
    """A gold treebank and two system files per side, as paths."""
    gold, _, _ = random_treebank(random.Random(9), 40)
    gold_path = tmp_path / "gold.conllu"
    gold_path.write_text(write_conllu(gold), encoding="utf-8")
    rng = random.Random(10)
    files = {}
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        files[side] = []
        for k in (1, 2):
            path = tmp_path / side / f"run{k}.conllu"
            path.write_text(write_conllu([with_random_tree(rng, s) if rng.random() < 0.4
                                          else s for s in gold]), encoding="utf-8")
            files[side].append(path)
    return gold_path, files


def sigtest_argv(tmp_path, gold_path, *extra):
    return ["sigtest", gold_path, tmp_path / "a", tmp_path / "b",
            "--shuffles", 50, *extra]


def test_sigtest_writes_the_same_report_and_manifest_on_both_paths(
        tmp_path, capfd, monkeypatch, runs):
    gold_path, _ = runs
    written = []
    for path in ("split", "fallback"):
        force_path(monkeypatch, path)
        out = tmp_path / f"sig_{path}.json"
        assert run_main(capfd, *sigtest_argv(tmp_path, gold_path, "--output", out)) \
            == (0, "", "")
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        del manifest["created"], manifest["output"]
        written.append((out.read_bytes(), manifest))
    assert written[0] == written[1]


def test_sigtest_records_the_gold_then_side_a_then_side_b(tmp_path, process_path, runs):
    gold_path, files = runs
    args = cli.build_parser().parse_args(map(str, sigtest_argv(tmp_path, gold_path)))
    args.inputs = {}
    cli._check_args(args)
    assert cli.cmd_sigtest(args) == 0
    assert list(args.inputs) == [str(p) for p in [gold_path, *files["a"], *files["b"]]]
    assert_no_child_left()


@pytest.mark.parametrize("bad_sides", ["a", "b", "ab"])
def test_sigtest_reports_the_first_bad_file_on_both_paths(
        tmp_path, capfd, process_path, runs, bad_sides):
    gold_path, files = runs
    for side in bad_sides:
        files[side][1].write_text("bad line\n", encoding="utf-8")
    first_bad = files[bad_sides[0]][1]
    code, out, err = run_main(capfd, *sigtest_argv(tmp_path, gold_path))
    assert (code, out) == (2, "")
    assert err == (f"error: {first_bad}: sentence 1, line 1: "
                   "expected 10 tab-separated columns, got 1\n")


def test_a_sigtest_child_killed_mid_run_leaves_its_half_to_this_process(
        tmp_path, capfd, monkeypatch, runs):
    gold_path, _ = runs
    force_path(monkeypatch, "fallback")
    code, expected, _ = run_main(capfd, *sigtest_argv(tmp_path, gold_path))
    assert code == 0
    force_path(monkeypatch, "split")
    parent = os.getpid()
    read_columns = cli.read_columns

    def dying_read(handle):
        if in_child(parent):
            os.kill(os.getpid(), signal.SIGKILL)
        return read_columns(handle)

    monkeypatch.setattr(cli, "read_columns", dying_read)
    assert run_main(capfd, *sigtest_argv(tmp_path, gold_path)) == (0, expected, "")
