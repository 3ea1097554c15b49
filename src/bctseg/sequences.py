"""Alphabet handling and ingestion of FASTA / plain-text / CSV symbol data."""

from __future__ import annotations

import csv
import io
import operator

import numpy as np


class ParseError(ValueError):
    """An input file could not be mapped onto the requested alphabet."""


def as_int(value, field: str) -> int:
    """`value` as an int; a float, a bool or any other non-integer raises
    ValueError naming `field` rather than being truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


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
        return cls("ACGT")

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

    def join(self, codes) -> str:
        """The labels of `codes` written end to end."""
        return "".join(self.labels[c] for c in codes)

    def split(self, text: str) -> tuple[int, ...]:
        """Codes of labels written end to end, read greedily, longest label
        first; `"λ"` reads as the root, `()`, unless it is a label itself."""
        if text == "λ" and text not in self._index:
            return ()
        by_length = sorted(self.labels, key=len, reverse=True)
        codes, i = [], 0
        while i < len(text):
            label = next((lab for lab in by_length if text.startswith(lab, i)), None)
            if label is None:
                raise ParseError(f"cannot decode context string {text!r} at offset {i}")
            codes.append(self._index[label])
            i += len(label)
        return tuple(codes)

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


def parse_fasta(data, alphabet: Alphabet | None = None) -> list[int]:
    """Symbol codes of the first record of a FASTA file (`Alphabet.dna()` by
    default). Header and whitespace are discarded, symbols and labels are
    read without case, and only the first record is read. Unmapped
    characters report their 0-based offset within the record's sequence
    characters; a label that is not one character, or differs from another
    only in case, raises ValueError.
    """
    labels = (Alphabet.dna() if alphabet is None else alphabet).labels
    mapping = {lab.upper(): i for i, lab in enumerate(labels)}
    for i, lab in enumerate(labels):
        if len(lab) != 1:
            raise ValueError(f"alphabet label {lab!r} is not one character, "
                             "as FASTA symbols are")
        if mapping[lab.upper()] != i:
            raise ValueError(f"alphabet label {lab!r} differs from "
                             f"{labels[mapping[lab.upper()]]!r} only in case, "
                             "and FASTA symbols are read without case")
    text = _as_text(data)
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

    The layout is per line when newlines stand between tokens or some label
    is longer than one character, as `format_plain` writes it; surrounding
    whitespace never counts.
    """
    text = _as_text(data).strip()
    if not text:
        raise ParseError("empty input")
    codes: list[int] = []
    if "\n" in text or any(len(lab) > 1 for lab in alphabet.labels):
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


def format_plain(codes, alphabet: Alphabet) -> str:
    """The text `parse_plain` reads as `codes`, with a final newline: one
    label per line when some label is longer than one character, else
    labels end to end."""
    sep = "\n" if any(len(lab) > 1 for lab in alphabet.labels) else ""
    return sep.join(alphabet.labels[c] for c in codes) + "\n"


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
