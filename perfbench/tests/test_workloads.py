from dataclasses import replace

import pytest

from perfbench.harness import WORKLOADS
from perfbench.workloads import PRESETS, WORDINGS, GeneratorParams, generate

SMALL = GeneratorParams(
    turns=120, statements_per_turn=(0.1, 0.7, 0.15, 0.05), topics=10, attributes=5,
    skew=0.5, planted=6, distractors=(1, 4), questions=36,
)


def test_same_seed_gives_same_inputs():
    assert generate(SMALL, 7) == generate(SMALL, 7)


def test_different_seeds_give_different_inputs():
    a, b = generate(SMALL, 7), generate(SMALL, 8)
    assert a.turns != b.turns
    assert [q.text for q in a.questions] != [q.text for q in b.questions]


def test_question_mix_is_thirds_and_alternates_presets():
    conv = generate(SMALL, 3)
    wordings = [q.wording for q in conv.questions]
    assert all(wordings.count(w) == len(wordings) // 3 for w in WORDINGS)
    presets = [q.preset for q in conv.questions]
    assert presets[:4] == [PRESETS[0], PRESETS[1], PRESETS[0], PRESETS[1]]


def test_planted_keywords_appear_only_in_their_fact():
    conv = generate(SMALL, 5)
    text = "\n".join(t.user + "\n" + t.assistant for t in conv.turns)
    for fact in conv.facts:
        for keyword in fact.keywords:
            assert text.count(keyword) == 1


def test_per_turn_questions_ask_only_about_planted_facts():
    conv = generate(replace(SMALL, per_turn=True, questions=120), 4)
    assert len(conv.questions) == 120
    for index, question in enumerate(conv.questions):
        assert question.after_turn <= index


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_keep_their_shape(name):
    params = WORKLOADS[name].params
    assert params.questions >= 1000 or name == "ingest-long"
    carrying = sum(params.statements_per_turn[1:])
    if name == "ingest-long":
        assert carrying >= 0.9


def test_bad_parameters_are_rejected():
    with pytest.raises(ValueError):
        replace(SMALL, statements_per_turn=(0.5, 0.5, 0.5, 0.0))
    with pytest.raises(ValueError):
        replace(SMALL, distractors=(3, 1))
