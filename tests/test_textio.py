"""Line reading: a line ends at LF, CRLF or CR, for strings and handles."""

import io
import random
import re

import pytest

from ruleparse.textio import lines_of

from conftest import OTHER_BREAKS, ShortReads

BREAKS = ["\n", "\r", "\r\n"]
CHARS = ["a", "b", "\t", " ", "ç", "ğ", "😀", *OTHER_BREAKS]


def reference_lines(text):
    lines = re.split("\r\n|\r|\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def random_line(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 9)))


def random_text(rng):
    pieces = []
    for _ in range(rng.randint(0, 40)):
        kind = rng.random()
        if kind < 0.4:
            pieces.append(rng.choice(BREAKS))
        elif kind < 0.5:
            pieces.append("\r" * rng.randint(1, 3) + "\n" * rng.randint(0, 2))
        else:
            pieces.append(random_line(rng))
    return "".join(pieces)


def test_only_lf_cr_and_crlf_end_a_line():
    for b in BREAKS:
        assert list(lines_of("a" + b + "b")) == ["a", "b"]
    others = [chr(c) for c in range(0x3000) if chr(c) not in "\n\r"]
    assert set(OTHER_BREAKS) <= set(others)
    assert all(list(lines_of("a" + c + "b")) == ["a" + c + "b"] for c in others)


def test_lines_of_is_the_same_for_every_read_size():
    rng = random.Random(2024)
    texts = [random_text(rng) for _ in range(60)] + [
        "", "\r", "\n", "\r\n", "a\r", "a\r\n", "\r\r\n\n", "a\rb", "no break"]
    for text in texts:
        expected = reference_lines(text)
        assert list(lines_of(text)) == expected, text
        for limit in range(1, 65):
            assert list(lines_of(ShortReads(text, limit))) == expected, \
                (text, limit)


def test_lines_of_is_the_same_for_strings_and_files(tmp_path):
    rng = random.Random(2025)
    path = tmp_path / "lines.txt"
    for _ in range(40):
        lines = [random_line(rng) for _ in range(rng.randint(0, 8))]
        for newline in BREAKS:
            text = newline.join(lines) + rng.choice(["", newline])
            expected = reference_lines(text)
            for source in (text, io.StringIO(text, newline=None),
                           io.StringIO(text, newline="")):
                assert list(lines_of(source)) == expected, (text, source)
            path.write_bytes(text.encode("utf-8"))
            for mode in (None, ""):
                with open(path, encoding="utf-8", newline=mode) as handle:
                    assert list(lines_of(handle)) == expected, (text, mode)


@pytest.mark.parametrize("source", ["a\nb\r\nc", ShortReads("a\nb\r\nc", 2)])
def test_lines_of_takes_strings_and_handles(source):
    assert list(lines_of(source)) == ["a", "b", "c"]
