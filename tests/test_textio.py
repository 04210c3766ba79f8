"""Streamed line reading: the same lines as ``str.splitlines()``."""

import random

import pytest

from ruleparse.textio import CHUNK_CHARS, iter_lines, lines_of

from conftest import ShortReads

# Every character that ends a line for ``str.splitlines()``, and "\r\n".
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]


def random_text(rng):
    pieces = []
    for _ in range(rng.randint(0, 40)):
        kind = rng.random()
        if kind < 0.45:
            pieces.append(rng.choice(BREAKS))
        elif kind < 0.55:
            pieces.append("\r" * rng.randint(1, 3) + "\n" * rng.randint(0, 2))
        else:
            pieces.append("".join(rng.choice("ab\tçğ😀 ")
                                  for _ in range(rng.randint(1, 9))))
    return "".join(pieces)


def test_every_line_break_is_known():
    assert all(len(("a" + b + "b").splitlines()) == 2 for b in BREAKS)
    others = [chr(c) for c in range(0x3000) if chr(c) not in "".join(BREAKS)]
    assert all(len(("a" + c + "b").splitlines()) == 1 for c in others)


def test_iter_lines_equals_splitlines_for_every_chunk_size():
    rng = random.Random(2024)
    texts = [random_text(rng) for _ in range(60)] + [
        "", "\r", "\n", "\r\n", "a\r", "a\r\n", "\r\r\n\n", "a\rb", "no break"]
    for text in texts:
        for size in range(1, 65):
            assert list(iter_lines(ShortReads(text, size))) == text.splitlines(), \
                (text, size)
            assert list(iter_lines(ShortReads(text, 10**6), size)) \
                == text.splitlines(), (text, size)


def test_iter_lines_on_files_opened_without_newline_translation(tmp_path):
    rng = random.Random(2025)
    path = tmp_path / "lines.txt"
    for _ in range(40):
        text = random_text(rng)
        path.write_bytes(text.encode("utf-8"))
        for size in (1, 2, 3, 5, 8, 13, 64):
            with open(path, encoding="utf-8", newline="") as handle:
                assert list(iter_lines(handle, size)) == text.splitlines(), \
                    (text, size)
        # A "\r\n" that straddles the default chunk.
        long = "x" * (CHUNK_CHARS - 1) + "\r\n" + text
        path.write_bytes(long.encode("utf-8"))
        with open(path, encoding="utf-8", newline="") as handle:
            assert list(iter_lines(handle)) == long.splitlines()


@pytest.mark.parametrize("source", ["a\nb\r\nc", ShortReads("a\nb\r\nc", 2)])
def test_lines_of_takes_strings_and_handles(source):
    assert list(lines_of(source)) == ["a", "b", "c"]


class CountedChunk(str):
    """A chunk that counts the characters split through it."""

    split = 0

    def splitlines(self, *args):
        CountedChunk.split += len(self)
        return super().splitlines(*args)


class CountedReads(ShortReads):
    def __init__(self, text: str, limit: int):
        super().__init__(text, limit)
        self.returned = 0

    def read(self, size: int = -1) -> str:
        chunk = super().read(size)
        self.returned += len(chunk)
        return CountedChunk(chunk)


@pytest.mark.parametrize("text", [
    "x" * 64 * 500 + "\n" + "y" * 64 * 500,
    "a\n" + "x" * 64 * 500 + "\x85b" + "y" * 6400,
], ids=["newline", "next-line"])
def test_a_line_many_chunks_long_is_split_once(text):
    # Each character is split once, in the chunk that read it, not again
    # with every later chunk of a line that has no break yet.
    CountedChunk.split = 0
    handle = CountedReads(text, 64)
    assert list(iter_lines(handle, 64)) == text.splitlines()
    assert handle.returned == len(text)
    assert CountedChunk.split == len(text)
