"""The memoized health columns and the flat attribution tallies emit the
same payloads as the straightforward implementations they replaced.

``reference_population_health`` and ``reference_summarize_generation``
are those implementations, kept here as oracles: a Counter per column
and a nested dict charged per mutation. The only adaptation is the
child-record shape, which is now a ``(parent_score, crossover,
mutations, fallback)`` tuple. Every drawn input must give equal payloads
and equal ``json.dumps`` bytes (key order and float digits included).
"""

from __future__ import annotations

import json
import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import population_health
from repro.obs.attribution import CHANNELS, summarize_generation
from repro.obs.health import _column_stats, stall_risk

# ---------------------------------------------------------------------------
# the reference implementations
# ---------------------------------------------------------------------------


def reference_population_health(
    code_rows,
    *,
    cardinalities,
    best_history=(),
    stalled_generations=0,
    stall_patience=None,
    batch_size=0,
    batch_infeasible=0,
):
    population = len(code_rows)
    param_entropy = {}
    param_spread = {}
    varying = []
    columns = zip(*code_rows) if population else [()] * len(cardinalities)
    for (name, cardinality), column in zip(cardinalities.items(), columns):
        reachable = min(population, cardinality)
        if reachable <= 1:
            param_entropy[name] = 0.0
            param_spread[name] = 1.0 if population else 0.0
            continue
        counts = Counter(column).values()
        entropy = -sum(
            (n / population) * math.log(n / population) for n in counts
        )
        entropy = min(1.0, entropy / math.log(reachable))
        param_entropy[name] = round(entropy, 6)
        param_spread[name] = round(len(counts) / reachable, 6)
        varying.append(entropy)
    diversity = sum(varying) / len(varying) if varying else 0.0

    duplicate_rate = 0.0
    if population:
        duplicate_rate = 1.0 - len(set(code_rows)) / population

    velocity = 0.0
    finite = [s for s in best_history if s == s and abs(s) != float("inf")]
    if len(finite) > 1:
        velocity = (finite[-1] - finite[0]) / (len(finite) - 1)

    infeasible_rate = batch_infeasible / batch_size if batch_size else 0.0
    return {
        "population": population,
        "diversity": round(diversity, 6),
        "param_entropy": param_entropy,
        "param_spread": param_spread,
        "duplicate_rate": round(duplicate_rate, 6),
        "infeasible_rate": round(infeasible_rate, 6),
        "convergence_velocity": round(velocity, 6),
        "stalled_generations": stalled_generations,
        "stall_risk": round(
            stall_risk(stalled_generations, stall_patience, duplicate_rate), 6
        ),
    }


def _finite(value):
    return value == value and value not in (float("inf"), float("-inf"))


def _cell():
    return {"proposals": 0, "feasible": 0, "improved": 0, "delta_sum": 0.0}


def _charge(cell, delta):
    cell["proposals"] += 1
    if delta is None:
        return
    cell["feasible"] += 1
    cell["delta_sum"] += delta
    if delta > 0:
        cell["improved"] += 1


def reference_summarize_generation(
    children, scores, confidence=0.0, hinted=False, effective_importance=None
):
    if not children:
        return None
    payload = {
        "children": len(children),
        "improved": 0,
        "crossover": 0,
        "mutation_fallbacks": 0,
        "confidence": confidence,
        "hinted": hinted,
        "params": {},
        "channels": {},
    }
    for child, (score, feasible) in zip(children, scores):
        parent_score, crossover, mutations, fallback = child
        if crossover:
            payload["crossover"] += 1
        if fallback:
            payload["mutation_fallbacks"] += 1
        delta = None
        if feasible and _finite(score) and _finite(parent_score):
            delta = score - parent_score
        if delta is not None and delta > 0:
            payload["improved"] += 1
        for name, channel in mutations:
            param = payload["params"].setdefault(
                name, {**_cell(), "channels": {}}
            )
            _charge(param, delta)
            _charge(param["channels"].setdefault(channel, _cell()), delta)
            _charge(payload["channels"].setdefault(channel, _cell()), delta)
    if effective_importance:
        payload["effective_importance"] = {
            name: round(float(value), 6)
            for name, value in effective_importance.items()
        }
    return payload


def assert_same(new, reference):
    assert json.dumps(new) == json.dumps(reference)
    assert new == reference


# ---------------------------------------------------------------------------
# health
# ---------------------------------------------------------------------------

#: Finite values stay small enough that no difference overflows to inf.
finite_scores = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
scores_with_specials = st.one_of(
    finite_scores, st.sampled_from([math.nan, math.inf, -math.inf])
)


@st.composite
def health_cases(draw):
    cardinalities = {
        f"p{i}": card
        for i, card in enumerate(
            draw(st.lists(st.integers(1, 32), min_size=1, max_size=9))
        )
    }
    # Small code ranges repeat rows and count profiles; full ranges spread.
    spread = draw(st.sampled_from(["narrow", "full"]))
    population = draw(st.integers(0, 48))
    rows = [
        tuple(
            draw(st.integers(0, min(card, 3) - 1 if spread == "narrow" else card - 1))
            for card in cardinalities.values()
        )
        for _ in range(population)
    ]
    batch_size = draw(st.integers(0, 64))
    return rows, {
        "cardinalities": cardinalities,
        "best_history": draw(st.lists(scores_with_specials, max_size=12)),
        "stalled_generations": draw(st.integers(0, 40)),
        "stall_patience": draw(st.one_of(st.none(), st.integers(0, 20))),
        "batch_size": batch_size,
        "batch_infeasible": draw(st.integers(0, batch_size)),
    }


class TestHealthMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(health_cases())
    def test_same_payload(self, case):
        rows, kwargs = case
        reference = reference_population_health(rows, **kwargs)
        assert_same(population_health(rows, **kwargs), reference)
        # The second call reads every varying column from the memo.
        assert_same(population_health(rows, **kwargs), reference)

    def test_memo_is_bounded(self):
        assert _column_stats.cache_info().maxsize == 4096


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------

PARAMS = ("a", "b", "c", "d")

mutation_lists = st.lists(
    st.tuples(st.sampled_from(PARAMS), st.sampled_from(CHANNELS)), max_size=5
)


@st.composite
def attribution_cases(draw):
    count = draw(st.integers(0, 24))
    children = []
    scores = []
    for _ in range(count):
        fallback = draw(st.booleans())
        mutations = () if fallback else draw(mutation_lists)
        children.append(
            (draw(scores_with_specials), draw(st.booleans()), mutations, fallback)
        )
        scores.append((draw(scores_with_specials), draw(st.booleans())))
    importance = draw(
        st.one_of(
            st.none(),
            st.just({}),
            st.dictionaries(
                st.sampled_from(PARAMS),
                st.floats(min_value=0.0, max_value=100.0),
            ),
        )
    )
    return children, scores, {
        "confidence": draw(st.floats(min_value=0.0, max_value=1.0)),
        "hinted": draw(st.booleans()),
        "effective_importance": importance,
    }


class TestAttributionMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(attribution_cases())
    def test_same_payload(self, case):
        children, scores, kwargs = case
        assert_same(
            summarize_generation(children, scores, **kwargs),
            reference_summarize_generation(children, scores, **kwargs),
        )
