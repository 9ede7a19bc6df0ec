import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktabsa import data as D
from ktabsa import routing
from ktabsa.synth import SynthSpec, write_synthetic

from helpers import corpus_stats, failing_disk, length_groups, tags_from_spans


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
def test_bio_valid_matches_oracle(tags):
    assert D.bio_valid(tags) == bio_oracle(tags)


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
