import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bctseg as b
from bctseg import Alphabet, ParseError


class TestAlphabet:
    def test_sizes_and_codes(self):
        dna = Alphabet.dna()
        assert dna.size == 4
        assert dna.code_of("G") == 2
        assert dna.labels == ("A", "C", "G", "T")

    def test_rejects_duplicates_and_tiny(self):
        with pytest.raises(ValueError):
            Alphabet(("0", "0"))
        with pytest.raises(ValueError):
            Alphabet(("0",))

    @pytest.mark.parametrize("labels", [("0", "1", ""), ("0", " ", "1"), ("0", "1", "\t")])
    def test_rejects_empty_and_blank_labels(self, labels):
        # no input token can match such a label, yet it would count towards m
        with pytest.raises(ValueError, match="empty or blank"):
            Alphabet(labels)


class TestParseFasta:
    def test_single_line(self):
        assert b.parse_fasta(b">h\nACGT") == [0, 1, 2, 3]

    def test_line_folding(self):
        assert b.parse_fasta(b">h\nAC\nGT") == [0, 1, 2, 3]

    def test_unmapped_reports_offset(self):
        with pytest.raises(ParseError, match="offset 3"):
            b.parse_fasta(b">h\nACGX")

    def test_lowercase_upcased(self):
        assert b.parse_fasta(b">h\nacgt") == [0, 1, 2, 3]

    def test_first_record_only(self):
        assert b.parse_fasta(b">one\nAC\n>two\nGT") == [0, 1]

    def test_empty_record(self):
        with pytest.raises(ParseError, match="empty"):
            b.parse_fasta(b">h\n")

    def test_not_fasta(self):
        with pytest.raises(ParseError):
            b.parse_fasta(b"ACGT")

    def test_byte_order_mark_skipped(self):
        assert b.parse_fasta(b"\xef\xbb\xbf>h\nACGT") == [0, 1, 2, 3]
        assert b.parse_fasta("\ufeff>h\nACGT") == [0, 1, 2, 3]


class TestParsePlain:
    def test_per_char(self, binary_alphabet):
        assert b.parse_plain(b"0101", binary_alphabet) == [0, 1, 0, 1]

    def test_per_line(self, ternary_alphabet):
        assert b.parse_plain(b"2\n0\n1", ternary_alphabet) == [2, 0, 1]

    def test_out_of_range(self, ternary_alphabet):
        with pytest.raises(ParseError):
            b.parse_plain(b"3", ternary_alphabet)

    def test_trailing_newline_is_per_char(self, binary_alphabet):
        assert b.parse_plain(b"0101\n", binary_alphabet) == [0, 1, 0, 1]

    def test_empty(self, binary_alphabet):
        with pytest.raises(ParseError):
            b.parse_plain(b"  \n ", binary_alphabet)


class TestParseCsv:
    def test_single_column(self, binary_alphabet):
        assert b.parse_csv(b"0\n1\n1\n", binary_alphabet) == [0, 1, 1]

    def test_bad_token_reports_row(self, binary_alphabet):
        with pytest.raises(ParseError, match="row 2"):
            b.parse_csv(b"0\nz\n", binary_alphabet)


class TestSplitContext:
    def test_basic(self, ternary_alphabet):
        seq = b.split_context([0, 1, 2, 0, 1], 2, ternary_alphabet)
        assert list(seq.context) == [0, 1]
        assert list(seq.observations) == [2, 0, 1]
        assert seq.n == 3 and seq.depth == 2

    def test_length_arithmetic_at_genome_scale(self, binary_alphabet):
        raw = np.zeros(5243, dtype=int)
        seq = b.split_context(raw, 10, binary_alphabet)
        assert seq.n == 5233

    def test_no_observations_left(self, binary_alphabet):
        with pytest.raises(ValueError):
            b.split_context([0], 1, binary_alphabet)

    @settings(derandomize=True, max_examples=50)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=60), st.integers(0, 5))
    def test_content_preserved(self, raw, depth):
        alpha = b.Alphabet.of_size(2)
        if len(raw) <= depth:
            with pytest.raises(ValueError):
                b.split_context(raw, depth, alpha)
            return
        seq = b.split_context(raw, depth, alpha)
        assert list(seq.context) + list(seq.observations) == raw


class TestSequence:
    def test_rejects_out_of_alphabet_codes(self, binary_alphabet):
        with pytest.raises(ValueError):
            b.Sequence(binary_alphabet, [0], [0, 2])

    def test_requires_observations(self, binary_alphabet):
        with pytest.raises(ValueError):
            b.Sequence(binary_alphabet, [0], [])

    def test_full_codes(self, binary_alphabet):
        seq = b.Sequence(binary_alphabet, [1, 0], [0, 1, 1])
        assert list(seq.full_codes()) == [1, 0, 0, 1, 1]

    def test_one_buffer_survives_pickling(self, binary_alphabet):
        seq = b.Sequence(binary_alphabet, [1, 0], [0, 1, 1])
        for copy in (seq, pickle.loads(pickle.dumps(seq))):
            assert copy.context.base is copy.full_codes()
            assert copy.observations.base is copy.full_codes()
            assert list(copy.full_codes()) == [1, 0, 0, 1, 1]

    def test_segment_codes_is_a_view_of_the_stretch_after_its_context(self, binary_alphabet):
        seq = b.Sequence(binary_alphabet, [1, 0], [0, 1, 1, 0])
        assert list(seq.segment_codes(1, 4)) == [1, 0, 0, 1, 1, 0]
        assert list(seq.segment_codes(2, 3)) == [0, 0, 1, 1]
        assert list(seq.segment_codes(4, 4)) == [1, 1, 0]
        assert np.shares_memory(seq.segment_codes(2, 4), seq.full_codes())

    @pytest.mark.parametrize("start, end", [(0, 2), (1, 5), (3, 2), (-1, 4)])
    def test_segment_codes_rejects_spans_outside_the_series(self, binary_alphabet, start, end):
        seq = b.Sequence(binary_alphabet, [1, 0], [0, 1, 1, 0])
        with pytest.raises(ValueError, match="not within observations 1..4"):
            seq.segment_codes(start, end)
