"""Alphabet handling and ingestion of FASTA / plain-text / CSV symbol data."""

from __future__ import annotations

import csv
import io

import numpy as np

DNA_LABELS = ("A", "C", "G", "T")


class ParseError(ValueError):
    """An input file could not be mapped onto the requested alphabet."""


class Alphabet:
    """Finite symbol alphabet mapping distinct labels to codes 0..m-1."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        labels = tuple(str(lab) for lab in labels)
        if len(labels) < 2:
            raise ValueError("an alphabet needs at least two symbols")
        if len(set(labels)) != len(labels):
            raise ValueError("alphabet labels must be distinct")
        if not all(lab.strip() for lab in labels):
            # no input format can yield such a token, yet it would raise m
            raise ValueError(f"alphabet labels must not be empty or blank: {labels!r}")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    @classmethod
    def dna(cls) -> "Alphabet":
        return cls(DNA_LABELS)

    @classmethod
    def of_size(cls, m: int) -> "Alphabet":
        """Digit-labelled alphabet 0..m-1."""
        return cls(tuple(str(i) for i in range(m)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def code_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ParseError(f"symbol {token!r} is not in the alphabet") from None

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Alphabet({list(self.labels)!r})"


class Sequence:
    """Encoded observations x_1..x_n together with an explicit initial context.

    The context holds the symbols immediately preceding x_1, oldest first.
    Its length fixes the maximum memory depth usable with this sequence.
    Both are views of one int64 buffer, in an unpickled copy too;
    `segment_codes` cuts a stretch of observations out of it, context first.
    """

    __slots__ = ("alphabet", "context", "observations", "_full")

    def __init__(self, alphabet: Alphabet, context, observations):
        self.alphabet = alphabet
        context = np.asarray(context, dtype=np.int64)
        observations = np.asarray(observations, dtype=np.int64)
        if context.ndim != 1 or observations.ndim != 1:
            raise ValueError("context and observations must be one-dimensional")
        if observations.size < 1:
            raise ValueError("a sequence needs at least one observation")
        full = np.concatenate([context, observations])
        m = alphabet.size
        if full.min() < 0 or full.max() >= m:
            raise ValueError(f"symbol codes must lie in [0, {m})")
        self._full = full
        self.context, self.observations = full[: context.size], full[context.size :]

    def __reduce__(self):
        return Sequence, (self.alphabet, self.context, self.observations)

    @property
    def n(self) -> int:
        return int(self.observations.size)

    @property
    def depth(self) -> int:
        """Length of the initial context."""
        return int(self.context.size)

    def full_codes(self) -> np.ndarray:
        """Context followed by observations; treat as read-only."""
        return self._full

    def segment_codes(self, start: int, end: int) -> np.ndarray:
        """Observations start..end (1-based, inclusive) preceded by the
        `depth` symbols before x_start, as a view of `full_codes()`; treat as
        read-only. (It is not flagged so: `np.correlate`, which keys every
        count tree, copies a read-only input.)"""
        if not 1 <= start <= end <= self.n:
            raise ValueError(f"segment {start}..{end} is not within observations 1..{self.n}")
        return self._full[start - 1 : self.depth + end]

    def __repr__(self):
        return f"Sequence(n={self.n}, depth={self.depth}, m={self.alphabet.size})"


def _as_text(data) -> str:
    """The input as text, without the byte-order mark it may start with."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8/ASCII text: {exc}") from None
    return data.removeprefix("\ufeff")


def parse_fasta(data, mapping: dict[str, int] | None = None) -> list[int]:
    """Symbol codes of the first record of a FASTA file.

    Header and whitespace are discarded, lowercase bases are upcased, and only
    the first record is read. Unmapped characters report their 0-based offset
    within the record's sequence characters.
    """
    text = _as_text(data)
    if mapping is None:
        mapping = {lab: i for i, lab in enumerate(DNA_LABELS)}
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip() == "":
            continue
        if line.startswith(">"):
            start = i + 1
            break
        raise ParseError("not FASTA: first non-blank line does not start with '>'")
    if start is None:
        raise ParseError("no FASTA record found")

    codes: list[int] = []
    offset = 0
    for line in lines[start:]:
        if line.startswith(">"):
            break
        for ch in line:
            if ch.isspace():
                continue
            sym = ch.upper()
            if sym not in mapping:
                raise ParseError(f"unmapped symbol {ch!r} at offset {offset}")
            codes.append(mapping[sym])
            offset += 1
    if not codes:
        raise ParseError("empty FASTA record")
    return codes


def parse_plain(data, alphabet: Alphabet) -> list[int]:
    """Symbol codes from plain text, one token per character or per line.

    The two layouts are told apart by the presence of newlines between
    tokens; surrounding whitespace never counts.
    """
    text = _as_text(data).strip()
    if not text:
        raise ParseError("empty input")
    codes: list[int] = []
    if "\n" in text:
        for lineno, line in enumerate(text.splitlines(), start=1):
            tok = line.strip()
            if not tok:
                continue
            try:
                codes.append(alphabet.code_of(tok))
            except ParseError:
                raise ParseError(f"unmapped token {tok!r} on line {lineno}") from None
    else:
        for pos, ch in enumerate(text):
            if ch.isspace():
                continue
            try:
                codes.append(alphabet.code_of(ch))
            except ParseError:
                raise ParseError(f"unmapped symbol {ch!r} at offset {pos}") from None
    if not codes:
        raise ParseError("no symbols found")
    return codes


def parse_csv(data, alphabet: Alphabet) -> list[int]:
    """Symbol codes from a single-column CSV file."""
    text = _as_text(data)
    codes: list[int] = []
    for rowno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        tok = row[0].strip()
        try:
            codes.append(alphabet.code_of(tok))
        except ParseError:
            raise ParseError(f"unmapped token {tok!r} on row {rowno}") from None
    if not codes:
        raise ParseError("empty CSV input")
    return codes


def split_context(raw, depth: int, alphabet: Alphabet) -> Sequence:
    """Split a raw symbol list into the first `depth` symbols (context) and
    the remaining observations."""
    raw = np.asarray(raw, dtype=np.int64)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if raw.size <= depth:
        raise ValueError(
            f"need more than {depth} symbols to split off a context, got {raw.size}"
        )
    return Sequence(alphabet, raw[:depth], raw[depth:])
