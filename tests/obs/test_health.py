"""Search-health diagnostics: entropy, stall risk, and the kernel's events."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, GeneticSearch, maximize
from repro.obs import population_health, stall_risk
from repro.obs.health import DEFAULT_STALL_PATIENCE

from ..conftest import run_recorded
from ..core.test_codec import design_spaces


class TestStallRisk:
    def test_zero_when_fresh(self):
        assert stall_risk(0, 10, 0.0) == 0.0

    def test_saturates_at_one(self):
        assert stall_risk(100, 10, 1.0) == 1.0

    def test_patience_weighting(self):
        # 0.7 * 5/10 + 0.3 * 0.5 = 0.5
        assert stall_risk(5, 10, 0.5) == pytest.approx(0.5)

    def test_default_patience_when_unset(self):
        assert stall_risk(DEFAULT_STALL_PATIENCE, None, 0.0) == pytest.approx(0.7)
        assert stall_risk(DEFAULT_STALL_PATIENCE, 0, 0.0) == pytest.approx(0.7)

    def test_duplicate_rate_clamped(self):
        assert stall_risk(0, 10, 2.0) == pytest.approx(0.3)
        assert stall_risk(0, 10, -1.0) == 0.0


class TestPopulationHealth:
    def test_uniform_population_is_maximally_diverse(self):
        rows = [(i,) for i in range(4)]
        health = population_health(rows, cardinalities={"a": 4})
        assert health["diversity"] == pytest.approx(1.0)
        assert health["param_spread"]["a"] == 1.0
        assert health["duplicate_rate"] == 0.0

    def test_collapsed_population(self):
        rows = [(1,) for _ in range(4)]
        health = population_health(rows, cardinalities={"a": 4})
        assert health["diversity"] == 0.0
        assert health["duplicate_rate"] == pytest.approx(0.75)

    def test_cardinality_one_param_excluded_from_diversity(self):
        rows = [(i, 0) for i in range(4)]
        health = population_health(
            rows, cardinalities={"a": 4, "fixed": 1}
        )
        assert health["param_entropy"]["fixed"] == 0.0
        assert health["diversity"] == pytest.approx(1.0)  # mean over varying only

    def test_velocity_and_infeasible_rate(self):
        health = population_health(
            [(0,)],
            cardinalities={"a": 2},
            best_history=[1.0, 2.0, 5.0],
            batch_size=10,
            batch_infeasible=3,
        )
        assert health["convergence_velocity"] == pytest.approx(2.0)
        assert health["infeasible_rate"] == pytest.approx(0.3)

    def test_non_finite_history_ignored(self):
        health = population_health(
            [(0,)],
            cardinalities={"a": 2},
            best_history=[float("-inf"), 1.0, 3.0],
        )
        assert health["convergence_velocity"] == pytest.approx(2.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_value_based_reference(self, data):
        space = data.draw(design_spaces())
        cards = space.codec.cardinalities
        pool = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, c - 1) for c in cards]),
                min_size=1,
                max_size=6,
            )
        )
        rows = data.draw(st.lists(st.sampled_from(pool), max_size=48))
        genomes = [space.codec.genome(codes) for codes in rows]
        cardinalities = {p.name: p.cardinality for p in space.params}
        context = {
            "best_history": data.draw(
                st.lists(st.sampled_from([float("-inf"), 0.0, 1.5, 3.0]),
                         max_size=5)
            ),
            "stalled_generations": data.draw(st.integers(0, 20)),
            "stall_patience": data.draw(st.sampled_from([None, 0, 5, 10])),
            "batch_size": len(rows),
            "batch_infeasible": data.draw(st.integers(0, len(rows))),
        }
        expected = _reference_health(
            genomes, cardinalities=cardinalities, **context
        )
        assert population_health(
            rows, cardinalities=cardinalities, **context
        ) == expected


def _reference_health(
    genomes,
    *,
    cardinalities,
    best_history=(),
    stalled_generations=0,
    stall_patience=None,
    batch_size=0,
    batch_infeasible=0,
):
    """The value-based health computation, decoding every gene: the
    oracle the code-column version must match field for field."""

    def freeze(value):
        return tuple(value) if isinstance(value, list) else value

    def normalized_entropy(values, cardinality):
        ceiling = min(len(values), cardinality)
        if ceiling <= 1:
            return 0.0
        counts = {}
        for value in values:
            key = freeze(value)
            counts[key] = counts.get(key, 0) + 1
        total = len(values)
        entropy = -sum(
            (n / total) * math.log(n / total) for n in counts.values() if n
        )
        return min(1.0, entropy / math.log(ceiling))

    population = len(genomes)
    param_entropy = {}
    param_spread = {}
    varying = []
    for name, cardinality in cardinalities.items():
        values = [genome[name] for genome in genomes]
        reachable = min(population, cardinality)
        if reachable <= 1:
            param_entropy[name] = 0.0
            param_spread[name] = 1.0 if population else 0.0
            continue
        entropy = normalized_entropy(values, cardinality)
        param_entropy[name] = round(entropy, 6)
        distinct = len({freeze(v) for v in values})
        param_spread[name] = round(distinct / reachable, 6)
        varying.append(entropy)
    diversity = sum(varying) / len(varying) if varying else 0.0
    duplicate_rate = 0.0
    if population:
        keys = {genome.key for genome in genomes}
        duplicate_rate = 1.0 - len(keys) / population
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


class TestKernelHealthEvents:
    def test_health_emitted_each_generation(self, toy_space, toy_evaluator):
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"),
            GAConfig(generations=5, seed=2),
        )
        __, events = run_recorded(search)
        healths = [e for e in events if e.kind == "health"]
        # one on start (generation 0) plus one per stepped generation
        assert len(healths) == 6
        for event in healths:
            payload = event.payload
            assert 0.0 <= payload["diversity"] <= 1.0
            assert 0.0 <= payload["stall_risk"] <= 1.0
            assert payload["population"] == search.config.population_size
        assert search.latest_health == healths[-1].payload

    def test_health_payload_is_built_on_first_read(
        self, toy_space, toy_evaluator, monkeypatch
    ):
        import repro.core.kernel as kernel

        calls = []
        real = kernel.population_health

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "population_health", counted)
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"),
            GAConfig(generations=5, seed=2, stall_generations=4),
        )
        result, events = run_recorded(search)
        assert calls == []
        healths = [e for e in events if e.kind == "health"]
        last = search.latest_health
        assert len(calls) == 1
        assert [e.payload for e in healths][-1] is last
        assert len(calls) == len(healths) == len(result.records)
        # The payload an eager call on the run's final state gives.
        size, infeasible = search._last_batch
        assert last == population_health(
            tuple(ind.genome.codes for ind in search._population),
            cardinalities={p.name: p.cardinality for p in toy_space.params},
            best_history=list(search._best_window),
            stalled_generations=search._stalled_generations,
            stall_patience=4,
            batch_size=size,
            batch_infeasible=infeasible,
        )

    def test_latest_health_mirrors_status(self, toy_space, toy_evaluator):
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"),
            GAConfig(generations=3, seed=2),
        )
        assert search.latest_health is None
        search.run()
        assert search.latest_health is not None
        assert set(search.latest_health) >= {
            "diversity", "duplicate_rate", "infeasible_rate",
            "convergence_velocity", "stalled_generations", "stall_risk",
        }

    def test_observability_off_emits_no_health(self, toy_space, toy_evaluator):
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"),
            GAConfig(generations=3, seed=2, observability=False),
        )
        __, events = run_recorded(search)
        assert not [e for e in events if e.kind == "health"]
        assert search.latest_health is None
