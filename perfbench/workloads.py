"""Seeded workload generator for the perf benchmark.

A workload is a synthetic multi-session conversation plus the questions a
client asks about it. Statements are `KIND: payload` marker lines, which the
offline MockExtractor turns into objects, so the extraction, linking and
retrieval code all run on realistic shapes without any network backend.

Generator knobs, and what each one sets:

- `turns` and `statements_per_turn` (probabilities of 0, 1, 2 and 3 marker
  statements on a turn) set how many objects the conversation makes.
- `topics`, `attributes` and `skew` set edge density. Every statement names
  one topic word and one attribute word from a vocabulary that is the same
  for every seed. Each word (and, when the statements outnumber the
  topic-attribute pairs, each pair) is used exactly its Zipf share
  (exponent `skew`) of the time, in a seeded order; two statements that
  share both words clear the similarity threshold and get an edge. Fewer words or more
  skew share more pairs, so the graph gets denser.
- `planted` facts each carry two keywords that appear nowhere else, and
  `distractors` near-miss statements share the fact's topic and attribute
  words but carry other values. A question about a fact is scored by how
  many of its keywords reach the rendered block, so distractors that
  outrank the fact push `block_recall` below 1.
- Questions cycle through three wordings (plain, temporal, causal) and
  alternate two retrieval presets (`standard`, 1 hop; `locomo`, 4 hops).
  A batch of `questions` asks about every fact in turn; with `per_turn`,
  question i follows turn i and asks about a fact planted by then.

Only the turns and the question strings reach the program; keywords stay on
the benchmark's side.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

SYLLABLES = (
    "ka", "to", "mi", "ra", "ne", "lo", "su", "vi",
    "de", "po", "ga", "ri", "bo", "te", "zu", "fa",
)
# Neither stopwords nor marker words, so they only add content tokens.
VERBS = ("uses", "needs", "moves", "tracks", "keeps", "drops", "sends", "holds")
# Entries of the engine's stopword list: they dilute cosine similarity but
# not the keyword (Jaccard) overlap.
PADDING = ("a", "an", "and", "as", "at", "by", "for", "from", "in", "of",
           "on", "or", "so", "to", "with", "we", "our", "it", "this", "that")
BASE_KINDS = ("DECISION", "TODO", "KEY_FACT", "REMINDER", "INSIGHT", "GLEAN")
BASE_KIND_WEIGHTS = (0.22, 0.14, 0.28, 0.14, 0.12, 0.10)
FILLER_USER = (
    "Quick note from my side.",
    "Picking this up again after the break.",
    "Here is where things stand today.",
    "Some updates from the morning sync.",
)
FILLER_ASSISTANT = (
    "Noted, thanks.",
    "Understood, I logged it.",
    "Got it, that is on the list.",
    "Thanks, I will keep that in mind.",
)
WORDINGS = ("plain", "temporal", "causal")
PRESETS = ("standard", "locomo")


@dataclass(frozen=True)
class GeneratorParams:
    """Everything the generator varies; recorded with every result."""

    turns: int
    statements_per_turn: tuple[float, float, float, float]
    topics: int
    attributes: int
    skew: float
    planted: int
    distractors: tuple[int, int]
    questions: int
    per_turn: bool = False

    def __post_init__(self):
        if self.turns < 1 or self.planted < 1 or self.questions < 0:
            raise ValueError("turns and planted must be positive, questions non-negative")
        if len(self.statements_per_turn) != 4 or abs(sum(self.statements_per_turn) - 1.0) > 1e-9:
            raise ValueError("statements_per_turn must be four probabilities summing to 1")
        if self.topics < 2 or self.attributes < 2 or self.skew < 0:
            raise ValueError("need at least two topics and attributes and a non-negative skew")
        low, high = self.distractors
        if not 0 <= low <= high:
            raise ValueError("distractors must be an ordered (low, high) range")


@dataclass(frozen=True)
class TurnText:
    """One generated turn, as the program receives it."""

    index: int
    user: str
    assistant: str


@dataclass(frozen=True)
class PlantedFact:
    turn: int
    topic: str
    attribute: str
    keywords: tuple[str, str]


@dataclass(frozen=True)
class Question:
    """A question about one planted fact; `after_turn` is its plant turn."""

    text: str
    wording: str
    preset: str
    keywords: tuple[str, str]
    after_turn: int


@dataclass(frozen=True)
class Conversation:
    params: GeneratorParams
    turns: tuple[TurnText, ...]
    facts: tuple[PlantedFact, ...]
    questions: tuple[Question, ...]

    def describe(self) -> dict:
        return asdict(self.params)


def _words(rng: random.Random, count: int, syllables: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = "".join(rng.choice(SYLLABLES) for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _coprime_stride(n: int) -> int:
    """A step near n / golden ratio that visits every index of range(n) once."""
    stride = max(1, round(n * 0.618))
    while math.gcd(stride, n) != 1:
        stride += 1
    return stride


def _zipf_weights(count: int, skew: float) -> list[float]:
    return [1.0 / (rank + 1) ** skew for rank in range(count)]


def _shuffled_quota(items, weights, count: int, rng: random.Random) -> list:
    """`count` items, each repeated its share of the weights (largest remainders), shuffled."""
    total = sum(weights)
    exact = [w * count / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    out = [item for item, n in zip(items, counts) for _ in range(n)]
    rng.shuffle(out)
    return out


def question_text(wording: str, topic: str, attribute: str) -> str:
    if wording == "plain":
        return f"What is the {topic} {attribute}?"
    if wording == "temporal":
        return f"When did we set the {topic} {attribute}?"
    return f"Why did we pick the {topic} {attribute}?"


def generate(params: GeneratorParams, seed: int) -> Conversation:
    """Build a conversation and its questions; the same seed gives the same output."""
    # The vocabulary does not depend on the seed: the mock embedder hashes
    # words into vector slots, so each seed's own words would collide
    # differently and change the graph's density from seed to seed.
    taken: set[str] = set()
    vocabulary = random.Random("perfbench-vocabulary")
    topics = _words(vocabulary, params.topics, 3, taken)
    attributes = _words(vocabulary, params.attributes, 2, taken)
    rng = random.Random(f"perfbench-{seed}")

    def value() -> str:
        return "".join(rng.choice(SYLLABLES) for _ in range(4))

    # One slot per marker statement; planted material takes some slots and
    # base statements fill the rest, so the per-turn distribution holds. The
    # counts are an exact share of the turns, spread over the conversation by
    # a fixed stride, so every seed has the same per-turn work and only the
    # words and the planted material's placement vary.
    counts: list[int] = []
    for statements, share in enumerate(params.statements_per_turn):
        counts += [statements] * round(share * params.turns)
    counts = (counts + [1] * params.turns)[: params.turns]
    stride = _coprime_stride(params.turns)
    counts = [counts[(index * stride) % params.turns] for index in range(params.turns)]
    # The first fact goes on the first slot, which must be on turn 0.
    first = next((i for i, n in enumerate(counts) if n), 0)
    counts[0], counts[first] = counts[first], counts[0]
    slots = [turn for turn, n in enumerate(counts) for _ in range(n)]
    if not slots:
        slots = [0]
    all_pairs = [(t, a) for t in topics for a in attributes]
    # In vocabulary order, so that a pair planted in every seed gets the
    # same number of distractors in every seed.
    pairs = sorted(rng.sample(all_pairs, params.planted), key=all_pairs.index)
    fact_numbers = rng.sample(range(10000, 55000), params.planted)
    decoy_numbers = iter(rng.sample(range(55000, 99999), params.planted * params.distractors[1]))

    # The first fact is planted on the first slot so that a session always
    # has something to ask about from its first turn on.
    low, high = params.distractors
    free = list(range(1, len(slots)))
    rng.shuffle(free)
    by_slot: dict[int, str] = {}
    facts: list[PlantedFact] = []
    for pos, (topic, attribute) in enumerate(pairs):
        slot = 0 if pos == 0 else free.pop()
        code = value()
        number = str(fact_numbers[pos])
        by_slot[slot] = f"KEY_FACT: the {topic} {attribute} is {code} {number}"
        facts.append(PlantedFact(slots[slot], topic, attribute, (code, number)))
        # Counts and frames follow the fact's position, not the rng, so the
        # share of crowded-out facts (and block_recall) varies little by seed.
        for rank in range(low + pos % (high - low + 1)):
            if not free:
                break
            kind = BASE_KINDS[(pos + rank) % 5]
            other = f"{value()} {next(decoy_numbers)}"
            frame = (pos + rank) % 4
            if frame == 0:
                payload = f"the {topic} {attribute} is {other}"
            elif frame == 1:
                payload = f"the {topic} {attribute} was {other}"
            elif frame == 2:
                payload = f"set the {topic} {attribute} to {other}"
            else:
                payload = f"{topic} {attribute} {VERBS[rank % len(VERBS)]} {other}"
            by_slot[free.pop()] = f"{kind}: {payload}"

    # Base statements use each topic, attribute and kind exactly its share
    # of the weights, in a seeded order, so the graph's density varies little
    # by seed. When there are at least as many statements as topic-attribute
    # pairs, each pair gets its exact share too; otherwise exact shares would
    # use no pair twice, and the order decides which topic meets which
    # attribute.
    base = len(slots) - len(by_slot)
    topic_w = _zipf_weights(len(topics), params.skew)
    attr_w = _zipf_weights(len(attributes), params.skew)
    if base >= len(topics) * len(attributes):
        pair_seq = _shuffled_quota(
            all_pairs, [tw * aw for tw in topic_w for aw in attr_w], base, rng)
        topic_seq = [t for t, _ in pair_seq]
        attr_seq = [a for _, a in pair_seq]
    else:
        topic_seq = _shuffled_quota(topics, topic_w, base, rng)
        attr_seq = _shuffled_quota(attributes, attr_w, base, rng)
    kind_seq = _shuffled_quota(BASE_KINDS, BASE_KIND_WEIGHTS, base, rng)
    padded = set(rng.sample(range(base), round(0.1 * base)))
    lines: dict[int, list[str]] = {}
    drawn = 0
    for slot, turn in enumerate(slots):
        line = by_slot.get(slot)
        if line is None:
            topic, attribute, kind = topic_seq[drawn], attr_seq[drawn], kind_seq[drawn]
            drawn += 1
            if drawn - 1 in padded:
                # Stopword-padded two-word statements are what the keyword
                # (Jaccard) rule links when cosine stays below threshold.
                pad = " ".join(rng.sample(PADDING, 3))
                line = f"{kind}: {pad} {topic} {attribute}"
            else:
                line = f"{kind}: {topic} {attribute} {value()} {value()}"
        lines.setdefault(turn, []).append(line)

    turns = []
    for index in range(params.turns):
        statements = lines.get(index, [])
        split = rng.randint(0, len(statements))
        user = [FILLER_USER[rng.randrange(len(FILLER_USER))], *statements[:split]]
        assistant = [FILLER_ASSISTANT[rng.randrange(len(FILLER_ASSISTANT))], *statements[split:]]
        turns.append(TurnText(index, "\n".join(user), "\n".join(assistant)))

    def ask(fact: PlantedFact, combo: int) -> Question:
        wording = WORDINGS[combo % 3]
        return Question(
            text=question_text(wording, fact.topic, fact.attribute),
            wording=wording,
            preset=PRESETS[combo % 2],
            keywords=fact.keywords,
            after_turn=fact.turn,
        )

    questions: list[Question] = []
    if params.per_turn:
        planted = sorted(facts, key=lambda f: f.turn)
        for index in range(params.questions):
            known = [f for f in planted if f.turn <= index] or planted[:1]
            questions.append(ask(rng.choice(known), index % 6))
    # Question i asks about fact order[i % facts] in combination i % 6, so
    # the wordings come in exact thirds over any multiple of six questions,
    # the presets alternate, and every fact is asked before any is repeated.
    order = list(range(len(facts)))
    rng.shuffle(order)
    for index in range(len(questions), params.questions):
        questions.append(ask(facts[order[index % len(order)]], index))
    return Conversation(params, tuple(turns), tuple(facts), tuple(questions[: params.questions]))
