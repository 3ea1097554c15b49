import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bctseg as b
from bctseg import Alphabet, ParseError, cli
from bctseg.sequences import format_plain


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


# labels that split(join(codes)) reads back: single characters ("λ" among
# them), or longer labels none of which is the start of another
single_char_labels = st.lists(st.sampled_from("01ACGTacgtλμ"), min_size=2, max_size=8,
                              unique=True)
prefix_free_labels = st.lists(st.text("abλ", min_size=1, max_size=4), min_size=2,
                              max_size=6, unique=True).filter(
    lambda labs: not any(p != q and q.startswith(p) for p in labs for q in labs))


class TestAlphabetText:
    @settings(derandomize=True, max_examples=150)
    @given(st.one_of(single_char_labels, prefix_free_labels), st.data())
    def test_split_and_parse_plain_invert_join_and_format_plain(self, labels, data):
        alphabet = Alphabet(labels)
        codes = tuple(data.draw(st.lists(st.integers(0, len(labels) - 1), max_size=12)))
        text = alphabet.join(codes)
        assert text == "".join(labels[c] for c in codes)
        assert alphabet.split(text) == codes
        if codes:
            assert b.parse_plain(format_plain(codes, alphabet), alphabet) == list(codes)

    def test_lambda_is_the_root_unless_a_label(self):
        assert Alphabet.of_size(2).split("λ") == ()
        assert Alphabet.of_size(2).split("") == ()
        assert Alphabet(["λ", "μ"]).split("λ") == (0,)
        assert Alphabet(["λ", "μ"]).split("μλ") == (1, 0)

    def test_longest_label_first(self):
        alphabet = Alphabet(["1", "10", "0"])
        assert alphabet.split("101") == (1, 0)
        assert alphabet.split("1001") == (1, 2, 0)

    def test_undecodable_reports_offset(self):
        with pytest.raises(ParseError, match="offset 2"):
            Alphabet(["ab", "c"]).split("abd")


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


    @pytest.mark.parametrize("labels, body, want", [
        ("acgt", ">h\nacGT\n", [0, 1, 2, 3]),
        ("01", ">h\n0110\n1\n", [0, 1, 1, 0, 1]),
        ("xYz", ">h\nXyZzy\n", [0, 1, 2, 2, 1]),
    ], ids=["lower-case-dna", "binary", "mixed-case"])
    def test_alphabet_reads_as_the_cli_reads(self, tmp_path, labels, body, want):
        # the lower-case case used to raise "unmapped symbol 'a'"
        assert b.parse_fasta(body.encode(), Alphabet(labels)) == want
        path = tmp_path / "x.fa"
        path.write_text(body)
        x, _ = cli._load_sequence(str(path), 0, labels)
        assert x.full_codes().tolist() == want

    @pytest.mark.parametrize("labels, message", [
        (["a", "A"], "'a' differs from 'A' only in case"),
        (["A", "CG", "T"], "'CG' is not one character"),
    ])
    def test_labels_no_fasta_symbol_tells_apart(self, labels, message):
        with pytest.raises(ValueError, match=message) as info:
            b.parse_fasta(b">h\nACGT", Alphabet(labels))
        assert not isinstance(info.value, ParseError)


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

    @pytest.mark.parametrize("body", [b"10\n", b"10", b" 11 \n"])
    def test_one_token_of_a_longer_label(self, body):
        # a single-token file of multi-character labels is per line, as
        # generate writes it; it used to be read one character at a time
        assert b.parse_plain(body, Alphabet(["10", "11"])) == [int(body.strip() == b"11")]


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
