import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktabsa import data as D
from ktabsa import routing
from ktabsa.cli import main
from ktabsa.synth import SynthSpec, write_synthetic

from fixtures import bench_inputs
from helpers import (assert_same_sentences, bio_valid, corpus_stats,
                     failing_disk, length_groups, load_aspect_corpus_by_line,
                     mutants, tags_from_spans)


TSV_OK = """\
the\tO\tO\t_
battery\tBA\tO\tpos
life\tIA\tO\tpos
is\tO\tO\t_
great\tO\tBP\t_

service\tBA\tO\tneg
was\tO\tO\t_
really\tO\tBP\t_
slow\tO\tIP\t_
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# spans (oracle first)


def spans_oracle(tags):
    """Brute-force run scanner: a span is a maximal run of non-O tags that
    does not cross a B boundary (lenient: orphan I opens a span)."""
    spans = []
    i = 0
    n = len(tags)
    while i < n:
        if tags[i] == D.OUTSIDE:
            i += 1
            continue
        j = i + 1
        while j < n and tags[j] == D.INSIDE:
            j += 1
        spans.append((i, j))
        i = j
    return tuple(spans)


def test_extract_spans_examples():
    assert D.extract_spans([D.BEGIN, D.INSIDE, D.OUTSIDE]) == ((0, 2),)
    assert D.extract_spans([D.OUTSIDE] * 3) == ()
    assert D.extract_spans(
        [D.INSIDE, D.OUTSIDE, D.BEGIN, D.INSIDE, D.INSIDE]) == ((0, 1), (2, 5))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=12))
def test_extract_spans_matches_oracle(tags):
    assert D.extract_spans(tags) == spans_oracle(tags)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_span_tag_round_trip(data):
    n = data.draw(st.integers(min_value=0, max_value=12))
    # draw a random disjoint sorted span set
    spans = []
    pos = 0
    while pos < n:
        if data.draw(st.booleans()):
            end = data.draw(st.integers(min_value=pos + 1, max_value=n))
            spans.append((pos, end))
            pos = end
        else:
            pos += 1
    tags = tags_from_spans(spans, n)
    assert D.extract_spans(tags) == tuple(spans)


# ---------------------------------------------------------------------------
# BIO validity


def bio_oracle(tags):
    ok = True
    for k, t in enumerate(tags):
        if t == D.INSIDE and (k == 0 or tags[k - 1] == D.OUTSIDE):
            ok = False
    return ok


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=10))
def test_bio_valid_matches_oracle(tmp_path_factory, tags):
    # the bulk reader's opinion-column check and the line reader's
    # bio_valid both accept a sentence exactly when the oracle does
    assert bio_valid(tags) == bio_oracle(tags)
    names = D.DEFAULT_SCHEMES.ote_tags
    text = "".join(f"w{i}\tO\t{names[t]}\t_\n" for i, t in enumerate(tags))
    path = write(tmp_path_factory.getbasetemp(), "bio.tsv", text)
    try:
        D.load_aspect_corpus(path)
    except D.CorpusError as e:
        assert "invalid opinion BIO sequence" in str(e)
        assert not bio_oracle(tags)
    else:
        assert bio_oracle(tags)


# ---------------------------------------------------------------------------
# aspect corpus loading


def test_load_aspect_corpus(tmp_path):
    path = write(tmp_path, "train.tsv", TSV_OK)
    sents = D.load_aspect_corpus(path)
    assert len(sents) == 2
    s = sents[0]
    assert s.tokens == ("the", "battery", "life", "is", "great")
    assert D.extract_spans(s.ate_gold) == ((1, 3),)
    assert D.extract_spans(s.ote_gold) == ((4, 5),)
    assert s.asc_gold == (None, 0, 0, None, None)
    np.testing.assert_array_equal(s.adjacency, np.eye(5))
    stats = corpus_stats(sents)
    assert stats == {"sentences": 2, "aspect_terms": 2, "opinion_terms": 2}


def test_load_empty_file(tmp_path):
    assert D.load_aspect_corpus(write(tmp_path, "e.tsv", "")) == []


def test_load_all_outside_sentence(tmp_path):
    text = "nothing\tO\tO\t_\nhere\tO\tO\t_\n"
    sents = D.load_aspect_corpus(write(tmp_path, "o.tsv", text))
    assert len(sents) == 1
    assert D.extract_spans(sents[0].ate_gold) == ()


def test_loader_rejects_bio_violation_with_sentence_index(tmp_path):
    text = "a\tO\tO\t_\nb\tIA\tO\tpos\n"
    with pytest.raises(D.CorpusError, match="sentence 0"):
        D.load_aspect_corpus(write(tmp_path, "bad.tsv", text))


def test_loader_rejects_unknown_tag_with_line(tmp_path):
    text = "a\tBX\tO\t_\n"
    with pytest.raises(D.CorpusError, match=":1:"):
        D.load_aspect_corpus(write(tmp_path, "bad.tsv", text))


def test_loader_rejects_sentiment_outside_span(tmp_path):
    text = "a\tO\tO\tpos\n"
    with pytest.raises(D.CorpusError, match="outside"):
        D.load_aspect_corpus(write(tmp_path, "bad.tsv", text))


def test_loader_rejects_missing_sentiment_inside_span(tmp_path):
    text = "a\tBA\tO\t_\n"
    with pytest.raises(D.CorpusError, match="no sentiment"):
        D.load_aspect_corpus(write(tmp_path, "bad.tsv", text))


def test_adjacency_sidecar_symmetrized_with_unit_diagonal(tmp_path):
    path = write(tmp_path, "train.tsv", TSV_OK)
    write(tmp_path, "train.tsv.adj", "0 1 4\n1 0 3\n")
    sents = D.load_aspect_corpus(path)
    a = sents[0].adjacency
    assert a[1, 4] == 1.0 and a[4, 1] == 1.0
    np.testing.assert_array_equal(a, a.T)
    assert (np.diag(a) == 1.0).all()
    b = sents[1].adjacency
    assert b[0, 3] == 1.0 and b[3, 0] == 1.0


def test_adjacency_sidecar_bounds_checked(tmp_path):
    path = write(tmp_path, "train.tsv", TSV_OK)
    write(tmp_path, "train.tsv.adj", "0 1 99\n")
    with pytest.raises(D.CorpusError, match="out of range"):
        D.load_aspect_corpus(path)


def test_sentences_hold_views_of_one_adjacency_buffer(tmp_path):
    path = write(tmp_path, "train.tsv", TSV_OK)
    write(tmp_path, "train.tsv.adj", "0 1 4\n")
    sents = D.load_aspect_corpus(path)
    buf = sents[0].adjacency.base
    assert buf is not None and buf.dtype == np.float32 and buf.ndim == 1
    assert all(s.adjacency.base is buf for s in sents)
    assert buf.size == sum(s.n * s.n for s in sents)
    assert all(s.adjacency.flags.c_contiguous for s in sents)


def test_bulk_reader_equals_the_line_reader_on_synthetic_and_bench_inputs(
        tmp_path):
    paths = write_synthetic(str(tmp_path / "synth"), SynthSpec())
    corpora = [paths["train"], paths["test"]]
    for workload in ("short-train", "long-train"):
        for seed in (7, 3, 11):
            inputs = bench_inputs(tmp_path / f"{workload}-{seed}", workload,
                                  seed)
            corpora += [inputs.train, inputs.predict]
    for path in corpora:
        assert_same_sentences(D.load_aspect_corpus(path),
                              load_aspect_corpus_by_line(path))


@pytest.mark.parametrize("text, count", [
    ("", 0), ("\n", 0), ("\n\n  \n\t\n", 0), ("a\tO\tO\t_", 1),
    ("a\tO\tO\t_\n\n\nb\tBA\tO\tneg", 2),
    ("a\tO\tO\t_\r\nb\tBA\tO\tpos\r\n\r\nc\tO\tBP\t_\r\n", 2),
    ("a\tO\tO\t_\rb\tO\tO\t_\r\rc\tO\tO\t_", 2),
    (" \t \nx y\tO\tO\t_\n\x0c\nz \tBA\tO\tneu\n", 2)],
    ids=["empty", "one blank line", "only blank lines", "no final newline",
         "runs of blank lines", "crlf", "cr", "whitespace lines"])
def test_line_ends_and_blank_lines_load_as_line_by_line(tmp_path, text,
                                                        count):
    path = tmp_path / "c.tsv"
    path.write_bytes(text.encode("utf-8"))
    got = D.load_aspect_corpus(str(path))
    assert len(got) == count
    assert_same_sentences(got, load_aspect_corpus_by_line(str(path)))


def test_first_error_in_stream_order_wins(tmp_path):
    # a BIO error closes sentence 0 before line 5's unknown tag is read
    text = "a\tO\tO\t_\nb\tIA\tO\tpos\n\nc\tO\tO\t_\nd\tXX\tO\t_\n"
    with pytest.raises(D.CorpusError, match=r"bad\.tsv: sentence 0 \(line 1\)"
                       r": invalid aspect BIO sequence \['O', 'IA'\]$"):
        D.load_aspect_corpus(write(tmp_path, "bad.tsv", text))
    # without the blank line sentence 0 is still open at the unknown tag
    text = text.replace("\n\n", "\n")
    with pytest.raises(D.CorpusError, match=r"bad\.tsv:4: unknown ate tag "
                       r"'XX'; expected one of \('BA', 'IA', 'O'\)$"):
        D.load_aspect_corpus(write(tmp_path, "bad.tsv", text))
    # a line's own errors in column order, the field count first
    for line, want in (("e\tXX\tXX\tXX", "unknown ate tag 'XX'"),
                       ("e\tO\tXX\tXX", "unknown ote tag 'XX'"),
                       ("e\tO\tO\tXX", "unknown asc tag 'XX'"),
                       ("e\tXX\tXX", "expected 4 tab-separated fields "
                                     r"\(token, aspect, opinion, sentiment\)"
                                     ", got 3")):
        with pytest.raises(D.CorpusError, match=rf"bad\.tsv:2: {want}"):
            D.load_aspect_corpus(write(tmp_path, "bad.tsv",
                                       f"a\tO\tO\t_\n{line}\n"))
    # within a sentence: aspect BIO, opinion BIO, then placement in token
    # order
    for rows, want in (
            (["a\tIA\tIP\t_"], "invalid aspect BIO"),
            (["a\tO\tIP\tpos"], "invalid opinion BIO"),
            (["a\tO\tO\t_", "b\tBA\tO\t_", "c\tO\tO\tneg"],
             "token 1 is inside an aspect span but carries no sentiment"),
            (["a\tO\tO\tneg", "b\tBA\tO\t_"],
             "token 0 is outside all aspect spans but carries a sentiment")):
        with pytest.raises(D.CorpusError, match=want):
            D.load_aspect_corpus(write(tmp_path, "bad.tsv",
                                       "\n".join(rows) + "\n"))


def test_adjacency_sidecar_skips_blank_lines_and_comments(tmp_path):
    path = write(tmp_path, "train.tsv", TSV_OK)
    write(tmp_path, "train.tsv.adj",
          "# sentence token token\n\n   \n  # indented\n0 1 4\n\t1  0\t3 \n")
    sents = D.load_aspect_corpus(path)
    assert sents[0].adjacency[1, 4] == sents[1].adjacency[3, 0] == 1.0
    assert sents[0].adjacency.sum() == 5 + 2 and sents[1].adjacency.sum() == 6
    write(tmp_path, "train.tsv.adj", "# only a comment\n\n")
    assert all((s.adjacency == np.eye(s.n)).all()
               for s in D.load_aspect_corpus(path))


@pytest.mark.parametrize("body, want", [
    ("0 1\n", "expected '<sentence> <i> <j>', got '0 1'"),
    ("0 1 2 # edge\n", "expected '<sentence> <i> <j>', got '0 1 2 # edge'"),
    ("0 1 x\n", "non-integer edge entry '0 1 x'"),
    ("0 1.0 2\n", "non-integer edge entry '0 1.0 2'"),
    ("2 0 1\n", r"sentence index 2 out of range \(corpus has 2\)"),
    ("-1 0 1\n", r"sentence index -1 out of range \(corpus has 2\)"),
    ("0 -1 2\n", "token index out of range for sentence 0 of length 5"),
    ("1 0 4\n", "token index out of range for sentence 1 of length 4"),
    ("99999999999999999999 0 1\n",
     r"sentence index 99999999999999999999 out of range \(corpus has 2\)"),
    ("0 0 -99999999999999999999\n",
     "token index out of range for sentence 0 of length 5")],
    ids=["fields", "comment after an edge", "non-integer", "decimal",
         "sentence index", "negative sentence index", "negative token",
         "token index", "sentence index beyond int64",
         "token index beyond int64"])
def test_adjacency_sidecar_errors_name_file_and_line(tmp_path, body, want):
    # line 3 after a comment and a blank line; a later bad line never
    # decides the message
    path = write(tmp_path, "train.tsv", TSV_OK)
    write(tmp_path, "train.tsv.adj", f"# edges\n\n{body}0 x\n")
    with pytest.raises(D.CorpusError, match=rf"train\.tsv\.adj:3: {want}$"):
        D.load_aspect_corpus(path)


def test_adjacency_sidecar_takes_what_int_takes(tmp_path):
    path = write(tmp_path, "train.tsv", TSV_OK)
    write(tmp_path, "train.tsv.adj", "+0 1_0 ٤\n")
    with pytest.raises(D.CorpusError, match="sentence 0 of length 5"):
        D.load_aspect_corpus(path)
    write(tmp_path, "train.tsv.adj", "+0 0_1 ٤\n")
    assert D.load_aspect_corpus(path)[0].adjacency[1, 4] == 1.0


@pytest.mark.parametrize("body, want", [
    ("0 1 4\n  1 0 3 \n\n", None), ("", None), (" \n\n", None),
    ("0 1 4\n0 1\n", ":3: expected '<sentence> <i> <j>', got '0 1'"),
    ("0 1 4 1 0 3\n", ":2: expected '<sentence> <i> <j>', got '0 1 4 1 0 3'"),
    ("0 1 4\n2 0 1\n", r":3: sentence index 2 out of range \(corpus has 2\)"),
    ("1 0 4\n", ":2: token index out of range for sentence 1 of length 4"),
    ("0 1 999999999999999999\n",
     ":2: token index out of range for sentence 0 of length 5"),
    ("9999999999999999999 0 1\n",
     r":2: sentence index 9999999999999999999 out of range \(corpus has 2\)"),
    ("0 1 4\n0 1", ":3: expected '<sentence> <i> <j>', got '0 1'")],
    ids=["edges", "empty", "blank lines", "fields", "two edges on a line",
         "sentence index", "token index", "18 digits", "19 digits",
         "no final newline"])
def test_plain_digit_sidecar_reads_as_under_a_comment(tmp_path, body, want):
    # a sidecar of ASCII digits, spaces and newlines parses without a
    # string per field; the same lines under a comment parse field by field
    path = write(tmp_path, "train.tsv", TSV_OK)
    read = []
    for first in ("\n", "# edges\n"):
        write(tmp_path, "train.tsv.adj", first + body)
        if want is None:
            read.append(D.load_aspect_corpus(path))
            assert_same_sentences(read[-1], load_aspect_corpus_by_line(path))
        else:
            with pytest.raises(D.CorpusError,
                               match=rf"train\.tsv\.adj{want}$"):
                D.load_aspect_corpus(path)
    if want is None:
        assert_same_sentences(*read)
        assert read[0][1].adjacency[0, 3] == (body != "" and body[0] == "0")


# ---------------------------------------------------------------------------
# document corpus


def test_load_document_corpus(tmp_path):
    lines = [
        json.dumps({"text": "good laptop", "domain": "Laptop",
                    "sentiment": "pos"}),
        json.dumps({"text": "meh", "domain": "Restaurant"}),
        json.dumps({"text": "fine", "sentiment": "neu"}),
    ]
    docs = D.load_document_corpus(write(tmp_path, "d.jsonl",
                                        "\n".join(lines) + "\n"))
    assert len(docs) == 3
    assert docs[0].tokens == ("good", "laptop")
    assert docs[0].domain_gold == 0 and docs[0].sentiment_gold == 0
    assert docs[1].sentiment_gold is None
    assert docs[2].domain_gold is None


def test_document_corpus_60k_records_loads_quickly(tmp_path):
    import time
    line = json.dumps({"text": "the battery was great overall",
                       "domain": "Laptop", "sentiment": "pos"})
    path = tmp_path / "big.jsonl"
    path.write_text("\n".join([line] * 60000) + "\n", encoding="utf-8")
    t0 = time.time()
    docs = D.load_document_corpus(str(path))
    elapsed = time.time() - t0
    assert len(docs) == 60000
    assert elapsed < 30.0, f"60k-document load took {elapsed:.1f}s"


def test_document_without_any_label_rejected(tmp_path):
    line = json.dumps({"text": "nothing"})
    with pytest.raises(D.CorpusError, match="neither"):
        D.load_document_corpus(write(tmp_path, "d.jsonl", line))


def test_document_unknown_label_rejected(tmp_path):
    line = json.dumps({"text": "x", "domain": "Hotel"})
    with pytest.raises(D.CorpusError, match="Hotel"):
        D.load_document_corpus(write(tmp_path, "d.jsonl", line))


@pytest.mark.parametrize("line", ["[1, 2]", "null"])
def test_document_record_that_is_not_an_object_rejected(tmp_path, line):
    text = json.dumps({"text": "fine", "domain": "Laptop"}) + "\n" + line
    with pytest.raises(D.CorpusError,
                       match=r"d\.jsonl:2: expected a JSON object"):
        D.load_document_corpus(write(tmp_path, "d.jsonl", text))


def test_deeply_nested_document_line_is_a_corpus_error(tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    text = json.dumps({"text": "fine", "domain": "Laptop"}) + "\n" + "[" * 5000
    with pytest.raises(D.CorpusError, match=r"d\.jsonl:2: bad JSON"):
        D.load_document_corpus(write(tmp_path, "d.jsonl", text))


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings_with_and_without_header(tmp_path):
    body = "apple 1 2 3\nbanana 4 5 6\n"
    for text in (body, "2 3\n" + body):
        table = D.load_embeddings(write(tmp_path, "v.txt", text))
        assert table.matrix.shape[0] == 4  # 2 words + unk + pad
        assert table.dim == 3
        np.testing.assert_allclose(table.matrix[table.vocab["apple"]],
                                   [1, 2, 3])
        assert not table.matrix[table.pad_index].any()


@pytest.mark.parametrize("header", ["3 2", "2 4"])
def test_embedding_header_disagreeing_with_rows_rejected(tmp_path, header):
    # a truncated file (fewer rows than the header's count) or a header
    # whose dim is not the row width fails at the header's line
    text = f"{header}\na 1 2\nb 3 4\n"
    with pytest.raises(D.CorpusError, match=r"v\.txt:1: header says"):
        D.load_embeddings(write(tmp_path, "v.txt", text))


def test_first_row_of_two_integers_is_read_as_a_header(tmp_path):
    # `count dim` cannot be told from a one-value row whose word is an
    # integer; read as a header, it must match the rows after it
    text = "7 1\n8 2\n9 3\n"
    with pytest.raises(D.CorpusError,
                       match=r"v\.txt:1: header says 7 rows of 1"):
        D.load_embeddings(write(tmp_path, "v.txt", text))


def test_unknown_row_of_rows_near_float32_limit_is_finite(tmp_path):
    # the column mean of finite float32 rows is finite; summed in float32,
    # two rows of 3e38 overflow with a RuntimeWarning (an error here)
    table = D.load_embeddings(write(tmp_path, "v.txt", "a 3e38 1\nb 3e38 1\n"))
    np.testing.assert_array_equal(table.matrix[table.unk_index],
                                  np.array([3e38, 1], dtype=np.float32))


def test_duplicate_word_first_wins_with_warning(tmp_path):
    body = "w 1 1\nw 2 2\n"
    for text in (body, "2 2\n" + body):    # a header counts duplicate rows
        with pytest.warns(UserWarning, match="duplicate"):
            table = D.load_embeddings(write(tmp_path, "v.txt", text))
        np.testing.assert_allclose(table.matrix[table.vocab["w"]], [1, 1])


def test_ragged_rows_rejected_with_line_number(tmp_path):
    text = "a 1 2 3\nb 4 5\n"
    with pytest.raises(D.CorpusError, match=":2:"):
        D.load_embeddings(write(tmp_path, "v.txt", text))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39", "-1e39"])
def test_non_finite_embedding_value_rejected_with_line_number(tmp_path,
                                                              value):
    # a NaN would also reach the unknown-word row, the column mean
    text = f"a 1 2 3\nb 4 {value} 6\n"
    with pytest.raises(D.CorpusError, match=":2: non-finite value.*'b'"):
        D.load_embeddings(write(tmp_path, "v.txt", text))


def test_random_embeddings_bounds_and_pad():
    rng = np.random.default_rng(0)
    table = D.random_embeddings([f"w{i}" for i in range(200)], 16, rng)
    body = table.matrix[:table.unk_index + 1]
    assert body.min() >= -0.25 and body.max() <= 0.25
    assert abs(body.mean()) < 0.02  # roughly centered
    assert not table.matrix[table.pad_index].any()


def test_oov_maps_to_unk(tmp_path):
    table = D.load_embeddings(write(tmp_path, "v.txt", "a 1 2\n"))
    ids = table.lookup(["a", "zzz"])
    assert ids[0] == table.vocab["a"]
    assert ids[1] == table.unk_index


# ---------------------------------------------------------------------------
# split and batches


def make_sentences(n, length=4):
    out = []
    for k in range(n):
        toks = tuple(f"t{k}_{i}" for i in range(length))
        ate = [D.OUTSIDE] * length
        ate[0] = D.BEGIN
        asc = [None] * length
        asc[0] = 0
        out.append(D.Sentence(toks, tuple(ate), (D.OUTSIDE,) * length,
                              tuple(asc), np.eye(length, dtype=np.float32)))
    return out


def test_dev_split_sizes_and_union():
    sents = make_sentences(10)
    train, dev = D.dev_split(sents, 0.2, seed=3)
    assert len(train) == 8 and len(dev) == 2
    ids = {id(s) for s in train} | {id(s) for s in dev}
    assert ids == {id(s) for s in sents}


def test_dev_split_large_counts():
    items = list(range(3044))
    train, dev = D.dev_split(items, 0.2, seed=1)
    assert len(train) == 2436 and len(dev) == 608


def test_dev_split_deterministic():
    items = list(range(50))
    a = D.dev_split(items, 0.2, seed=9)
    b = D.dev_split(items, 0.2, seed=9)
    assert a == b


def test_make_batches_shapes_and_determinism():
    sents = make_sentences(5)
    batches = D.make_batches(sents, 2, seed=5)
    assert [len(b) for b in batches] == [2, 2, 1]
    again = D.make_batches(sents, 2, seed=5)
    ids = [[id(s) for s in b] for b in batches]
    assert ids == [[id(s) for s in b] for b in again]
    assert sorted(sum(ids, [])) == sorted(map(id, sents))


def test_length_groups_in_order_of_first_appearance():
    sents = (make_sentences(1, length=3) + make_sentences(1, length=5)
             + make_sentences(1, length=3) + make_sentences(1, length=4)
             + make_sentences(1, length=5))
    assert length_groups(sents) == [[0, 2], [1, 4], [3]]
    assert length_groups([]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 300), max_size=40))
def test_length_chunks_sort_stably_and_fit_the_budget(lengths):
    items = [D.Document(("w",) * n, 0, None) for n in lengths]
    chunks = D.length_chunks(items)
    # the chunks lay out the stable length sort, longest first, each cut
    # greedily: its n^2 fit the budget, or it is one item, and the next
    # item would not fit
    assert sum(chunks, []) == sorted(range(len(items)),
                                     key=lambda i: -lengths[i])
    cost = [sum(lengths[i] ** 2 for i in c) for c in chunks]
    for c, total, nxt in zip(chunks, cost, chunks[1:] + [None]):
        assert c and (total <= routing.COUPLING_BUDGET or len(c) == 1)
        if nxt:
            assert total + lengths[nxt[0]] ** 2 > routing.COUPLING_BUDGET


@pytest.mark.parametrize("n", [1, 16, 64, 100, 256, 300])
def test_length_chunks_of_one_length_hold_budget_over_n_squared(n):
    items = [D.Document(("w",) * n, 0, None) for _ in range(40)]
    size = max(1, routing.COUPLING_BUDGET // n ** 2)
    assert D.length_chunks(items) == [list(range(i, min(i + size, 40)))
                                      for i in range(0, 40, size)]


def test_a_batch_of_short_sentences_is_one_chunk():
    # a short-train batch: 32 sentences of 4 to 14 tokens, one forward
    rng = np.random.default_rng(3)
    sents = [s for n in rng.integers(4, 15, 32)
             for s in make_sentences(1, length=int(n))]
    assert D.length_chunks(sents) == [sorted(range(32),
                                             key=lambda i: -sents[i].n)]


# ---------------------------------------------------------------------------
# file encoding and atomic writes


@pytest.mark.parametrize("loader", [D.load_aspect_corpus,
                                    D.load_document_corpus,
                                    D.load_embeddings])
def test_undecodable_bytes_raise_corpus_error_naming_the_file(tmp_path,
                                                              loader):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"ok\tO\tO\t_\ncaf\xe9\tO\tO\t_\n\n")
    with pytest.raises(D.CorpusError, match="latin1.txt.*UTF-8"):
        loader(str(path))


def test_atomic_write_failing_midway_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "out.json"
    with D.atomic_write(str(path)) as f:
        f.write("old\n")
    with failing_disk(nth_write=2), pytest.raises(OSError, match="No space"):
        with D.atomic_write(str(path)) as f:
            f.write("new line one\n")
            f.write("new line two\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_failed_write_synthetic_keeps_the_earlier_files(tmp_path):
    write_synthetic(str(tmp_path), SynthSpec(train_sentences=6,
                                             test_sentences=3, documents=4))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["docs.jsonl", "synthetic.cfg", "test.tsv",
                              "test.tsv.adj", "train.tsv", "train.tsv.adj"]
    with failing_disk(nth_write=5), pytest.raises(OSError, match="No space"):
        write_synthetic(str(tmp_path), SynthSpec(train_sentences=6,
                                                 test_sentences=3,
                                                 documents=4, seed=99))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# ---------------------------------------------------------------------------
# reader fuzzes: every mutant loads, or fails as CorpusError (exit 3)


V1_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data",
                             "tiny_v1.ckpt")
EMBEDDINGS = ("5 4\nthe 0.25 -0.5 1e-3 7\nbattery 1 2 3 4\nis -0 .5 5e+2 8\n"
              "great 3.5e-2 -1 0 9\nécran 1 1 1 1\n")


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory):
    return write_synthetic(str(tmp_path_factory.mktemp("fuzz")), SynthSpec(
        train_sentences=12, test_sentences=0, documents=12, seed=4))


@pytest.mark.parametrize("target", ["tsv", "adj"])
def test_mutated_aspect_corpora_load_as_line_by_line_or_raise_its_error(
        tmp_path, fuzz_bundle, target):
    # a mutant either loads the line reader's sentences or raises its
    # CorpusError message; a TSV mutant is read with and without the sidecar
    with open(fuzz_bundle["train"], "rb") as f:
        raw = {"tsv": f.read()}
    with open(fuzz_bundle["train"] + ".adj", "rb") as f:
        raw["adj"] = f.read()
    path, rejected = tmp_path / "m.tsv", None
    sidecar = tmp_path / "m.tsv.adj"
    for k, blob in enumerate(mutants(raw[target], len(raw[target]), 300,
                                     seed={"tsv": 23, "adj": 29}[target])):
        path.write_bytes(blob if target == "tsv" else raw["tsv"])
        if target == "adj" or k % 3:
            sidecar.write_bytes(blob if target == "adj" else raw["adj"])
        elif sidecar.exists():
            sidecar.unlink()
        try:
            want = load_aspect_corpus_by_line(str(path))
        except D.CorpusError as e:
            with pytest.raises(D.CorpusError) as got:
                D.load_aspect_corpus(str(path))
            assert str(got.value) == str(e)
            rejected = (blob, sidecar.exists())
            continue
        assert_same_sentences(D.load_aspect_corpus(str(path)), want)
    assert rejected is not None
    path.write_bytes(rejected[0] if target == "tsv" else raw["tsv"])
    sidecar.write_bytes(rejected[0] if target == "adj" else raw["adj"])
    if not rejected[1]:
        sidecar.unlink()
    assert main(["eval", "--checkpoint", V1_CHECKPOINT, "--corpus",
                 str(path)]) == 3


def test_retagged_corpora_raise_the_line_reader_s_first_error(tmp_path,
                                                              fuzz_bundle):
    # byte mutants rarely make a BIO or sentiment-placement error; 300
    # mutants that each swap 1-4 tags for other valid ones or "_" make many,
    # in several sentences at once, so the first in stream order must win
    with open(fuzz_bundle["train"], encoding="utf-8") as f:
        lines = f.read().split("\n")
    rows = [k for k, line in enumerate(lines) if line]
    tags = [getattr(D.DEFAULT_SCHEMES, f"{t}_tags")
            for t in ("ate", "ote", "asc")]
    rng = np.random.default_rng(37)
    path, kinds = tmp_path / "m.tsv", set()
    for _ in range(300):
        out = list(lines)
        for k in rng.choice(rows, size=int(rng.integers(1, 5))):
            fields = out[k].split("\t")
            c = int(rng.integers(1, 4))
            fields[c] = str(rng.choice(tags[c - 1] + (("_",) if c == 3
                                                        else ())))
            out[k] = "\t".join(fields)
        path.write_text("\n".join(out), encoding="utf-8")
        try:
            want = load_aspect_corpus_by_line(str(path))
        except D.CorpusError as e:
            with pytest.raises(D.CorpusError) as got:
                D.load_aspect_corpus(str(path))
            assert str(got.value) == str(e)
            kinds.add(str(e).split(": ")[2].split()[1])
            continue
        assert_same_sentences(D.load_aspect_corpus(str(path)), want)
    # both BIO errors and placement errors at several token positions
    assert {"aspect", "opinion"} < kinds and len(kinds) > 4


@pytest.mark.parametrize("target", ["documents", "embeddings"])
def test_mutated_documents_and_embeddings_load_or_raise_corpus_error(
        tmp_path, fuzz_bundle, target):
    if target == "documents":
        with open(fuzz_bundle["documents"], "rb") as f:
            raw = f.read()
        load, key = D.load_document_corpus, "documents"
    else:
        raw = EMBEDDINGS.encode("utf-8")
        load, key = D.load_embeddings, "general_embeddings"
    path, rejected, loaded = tmp_path / "m.txt", None, 0
    for blob in mutants(raw, len(raw), 300, seed=31):
        path.write_bytes(blob)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # duplicates
                load(str(path))
            loaded += 1
        except D.CorpusError:
            rejected = blob
    assert loaded and rejected is not None
    path.write_bytes(rejected)
    assert main(["train", "--config", fuzz_bundle["config"], "--quiet",
                 "--set", f"{key}={path}",
                 "--set", f"out_dir={tmp_path / 'run'}"]) == 3
    assert not (tmp_path / "run").exists()
