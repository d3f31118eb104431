"""Tokenizing, the mock embedder, and the scalar kernels' frozen values.

The scalar kernels (cosine_sim, hybrid_score and the keyword overlaps) are
the reference engine's (tests/reference.py); the values frozen here pin
that spec, and tests/test_scoring_index.py holds the scoring index to it
bit for bit.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canvasmem.errors import DimensionMismatchError, MissingEmbeddingError, ZeroVectorError
from canvasmem.retrieval import RetrievalConfig
from canvasmem.scoring import (
    DEFAULT_ALPHA,
    MOCK_EMBEDDING_DIM,
    MockEmbedder,
    content_tokens,
    stopwords,
    token_set,
    tokenize,
)

from conftest import make_obj
from reference import cosine_sim, hybrid_score, keyword_jaccard, keyword_score, mock_embed


# Frozen expected value: cos((1,1),(1,0)) = 1/sqrt(2), computed independently.
COS_45_DEG = 0.7071067811865475


def test_stopword_list_has_fifty_entries():
    words = stopwords()
    assert len(words) == 50
    assert "the" in words and "of" in words
    assert "redis" not in words


def test_tokenize_lowercases_and_drops_punctuation():
    assert tokenize("Use Redis, for CACHING!") == ["use", "redis", "for", "caching"]
    assert tokenize("v2.1 beta-3") == ["v2", "1", "beta", "3"]
    assert tokenize("") == []


def test_content_tokens_strips_stopwords_in_order():
    assert content_tokens("the cache is in redis") == ["cache", "redis"]
    assert content_tokens("the of and") == []


# Characters whose lowercase depends on context or leaves ASCII: the dotted
# capital I lowers to "i" plus a combining dot, the Kelvin sign to "k", and a
# capital sigma to a final or a medial sigma depending on what follows it.
_TRICKY_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["\u0130", "\u212a", "\u03a3", "\u0391\u03a3", "the", "and", "of",
                         "42", "v2", "Redis", " ", "-", "'", "\u0307"]),
        st.text(max_size=4),
    ),
    max_size=8,
).map("".join)


@given(content=_TRICKY_TEXT, quote=_TRICKY_TEXT)
def test_a_documents_tokens_are_its_contents_and_its_quotes(content, quote):
    """document_text joins content and quote with a space; the scoring index
    tokenizes the two apart and unites the sets."""
    assert token_set(content + " " + quote) == token_set(content) | token_set(quote)


def test_cosine_sim_frozen_value():
    assert cosine_sim([1.0, 1.0], [1.0, 0.0]) == pytest.approx(COS_45_DEG, abs=1e-12)
    assert cosine_sim([2.0, 0.0], [7.5, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_sim([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)
    assert cosine_sim([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_sim_rejects_mismatch_and_zero():
    with pytest.raises(DimensionMismatchError):
        cosine_sim([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVectorError):
        cosine_sim([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ZeroVectorError):
        cosine_sim([1.0, 0.0], [0.0, 0.0])


# Component magnitudes bounded away from zero so squared norms cannot
# underflow to a zero magnitude.
_component = st.one_of(st.just(0.0), st.floats(0.001, 50.0), st.floats(-50.0, -0.001))


@given(
    vec_a=st.lists(_component, min_size=2, max_size=6),
    vec_b=st.lists(_component, min_size=2, max_size=6),
    scale=st.floats(0.001, 100.0),
)
def test_cosine_sim_symmetric_and_scale_invariant(vec_a, vec_b, scale):
    size = min(len(vec_a), len(vec_b))
    vec_a, vec_b = vec_a[:size], vec_b[:size]
    if not any(vec_a) or not any(vec_b):
        return
    forward = cosine_sim(vec_a, vec_b)
    assert cosine_sim(vec_b, vec_a) == pytest.approx(forward, abs=1e-9)
    assert cosine_sim([scale * v for v in vec_a], vec_b) == pytest.approx(forward, abs=1e-6)
    assert -1.0 - 1e-9 <= forward <= 1.0 + 1e-9


def test_keyword_score_full_coverage():
    obj = make_obj(content="please use type hints everywhere", turn=0)
    assert keyword_score("use type hints everywhere", obj) == 1.0


def test_keyword_score_partial_coverage():
    obj = make_obj(content="the deploy happens friday", turn=0)
    # Content tokens of the query: deploy, friday, rollback; two are covered.
    assert keyword_score("deploy friday rollback", obj) == pytest.approx(2 / 3)


def test_keyword_score_counts_quote_tokens_too():
    obj = make_obj(content="migration deadline", quote="finish the schema by friday", turn=0)
    assert keyword_score("schema friday", obj) == 1.0


def test_keyword_score_stopword_only_query_is_zero():
    obj = make_obj(content="anything at all", turn=0)
    assert keyword_score("the of and by", obj) == 0.0
    assert keyword_score("", obj) == 0.0


@given(st.permutations(["cache", "redis", "deadline", "friday", "export"]))
def test_keyword_score_ignores_query_token_order(words):
    obj = make_obj(content="redis cache export", turn=0)
    assert keyword_score(" ".join(words), obj) == pytest.approx(3 / 5)


def test_keyword_jaccard_frozen_values():
    assert keyword_jaccard("redis cache eviction", "redis cache warmup") == pytest.approx(2 / 4)
    assert keyword_jaccard("alpha beta", "gamma delta") == 0.0
    assert keyword_jaccard("the of", "redis") == 0.0


def test_hybrid_weights_validate_alpha():
    assert RetrievalConfig().alpha == DEFAULT_ALPHA
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
        RetrievalConfig(alpha=1.5)
    with pytest.raises(ValueError):
        RetrievalConfig(alpha=-0.1)


def test_hybrid_score_frozen_blend():
    # Semantic half 0.5 (60 degree angle), lexical half 1.0.
    obj = make_obj(
        content="use type hints everywhere",
        turn=0,
        embedding=[0.5, math.sqrt(0.75)],
    )
    score = hybrid_score([1.0, 0.0], "type hints everywhere", obj)
    assert score == pytest.approx(0.7 * 0.5 + 0.3 * 1.0, abs=1e-9)


def test_hybrid_score_clamps_negative_cosine():
    obj = make_obj(content="use type hints everywhere", turn=0, embedding=[-1.0, 0.0])
    score = hybrid_score([1.0, 0.0], "type hints everywhere", obj)
    assert score == pytest.approx((1 - DEFAULT_ALPHA) * 1.0, abs=1e-9)


def test_hybrid_score_alpha_endpoints():
    obj = make_obj(content="use type hints everywhere", turn=0, embedding=[1.0, 0.0])
    lexical_only = hybrid_score([0.0, 1.0], "type hints", obj, alpha=0.0)
    assert lexical_only == pytest.approx(1.0)
    semantic_only = hybrid_score([1.0, 0.0], "unrelated words", obj, alpha=1.0)
    assert semantic_only == pytest.approx(1.0)


def test_hybrid_score_requires_embedding():
    obj = make_obj(content="no embedding here", turn=0, embedding=None)
    with pytest.raises(MissingEmbeddingError):
        hybrid_score([1.0, 0.0], "query", obj)


def test_mock_embedder_is_deterministic_across_instances():
    first = MockEmbedder().embed("the api gateway times out after 30 seconds")
    second = MockEmbedder().embed("the api gateway times out after 30 seconds")
    assert first == second
    assert len(first) == MOCK_EMBEDDING_DIM


def test_mock_embedder_output_is_unit_norm():
    vec = MockEmbedder().embed("cache responses in redis")
    assert math.sqrt(sum(v * v for v in vec)) == pytest.approx(1.0, abs=1e-9)


def test_mock_embedder_tokenless_input_gets_fixed_direction():
    embedder = MockEmbedder(dimension=16)
    vec = embedder.embed("!!! ???")
    assert vec[0] == 1.0
    assert sum(vec) == 1.0


def test_mock_embedder_similar_texts_score_higher():
    embedder = MockEmbedder()
    query = embedder.embed("redis cache settings")
    near = embedder.embed("the redis cache settings are documented")
    far = embedder.embed("completely unrelated gardening talk")
    assert cosine_sim(query, near) > cosine_sim(query, far)


@given(st.lists(st.sampled_from(["redis", "cache", "the", "ttl", "a1", "outage", "!"]),
                max_size=40),
       st.sampled_from([1, 3, 16, MOCK_EMBEDDING_DIM]))
def test_mock_embedder_equals_the_reference_to_the_last_bit(words, dimension):
    # Repeated words and small dimensions give buckets counted many times.
    text = " ".join(words)
    got = MockEmbedder(dimension).embed(text)
    assert [v.hex() for v in got] == [v.hex() for v in mock_embed(text, dimension)]


def test_mock_embedder_rejects_bad_dimension():
    with pytest.raises(ValueError):
        MockEmbedder(dimension=0)
