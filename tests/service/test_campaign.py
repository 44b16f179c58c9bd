"""Tests for campaign specs and engine construction."""

import pytest

from repro.core import (
    GeneticSearch,
    HintSpecError,
    NautilusError,
    RandomSearch,
    hintset_to_json,
    objective_from_expression,
)
from repro.queries import build_hints
from repro.service import (
    CampaignSpec,
    CampaignState,
    SearchService,
    ServiceClient,
    ServiceError,
    build_search,
)

#: One mistyped field each; every one must be rejected at submission.
BAD_FIELDS = [
    {"generations": "200"},
    {"generations": 2.5},
    {"seed": "x"},
    {"seed": None},
    {"priority": "hi"},
    {"priority": True},
    {"budget": 4.0},
    {"max_evaluations": "10"},
    {"workers": 1.0},
    {"trace_max_events": [100]},
    {"warm_start": False},
    {"confidence": "high"},
    {"confidence": True},
    {"tracing": "yes"},
    {"tracing": 1},
    {"label": 5},
    {"query": ["fft-luts"]},
]


class TestCampaignSpec:
    def test_roundtrip(self):
        spec = CampaignSpec(query="fft-luts", engine="baseline", seed=7, priority=2)
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_unknown_query_rejected(self):
        with pytest.raises(NautilusError, match="query"):
            CampaignSpec(query="warp-drive")

    def test_unknown_engine_rejected(self):
        with pytest.raises(NautilusError, match="engine"):
            CampaignSpec(query="fft-luts", engine="annealing")

    def test_unknown_fields_rejected(self):
        with pytest.raises(NautilusError, match="fields"):
            CampaignSpec.from_json({"query": "fft-luts", "bogus": 1})

    def test_validation(self):
        with pytest.raises(NautilusError):
            CampaignSpec(query="fft-luts", generations=0)
        with pytest.raises(NautilusError):
            CampaignSpec(query="fft-luts", budget=0)

    @pytest.mark.parametrize("bad", BAD_FIELDS, ids=lambda b: repr(b))
    def test_field_types_checked(self, bad):
        with pytest.raises(NautilusError, match=next(iter(bad))):
            CampaignSpec.from_json({"query": "fft-luts", **bad})

    def test_well_typed_optionals_accepted(self):
        spec = CampaignSpec(
            query="fft-luts", confidence=1, max_evaluations=50, workers=2,
            trace_max_events=10, warm_start=3, tracing=True, label="x",
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_inline_hints_structurally_validated(self):
        with pytest.raises(HintSpecError) as excinfo:
            CampaignSpec(
                query="noc-frequency",
                hints={"schema": 1, "params": {"a": {"importance": 500}}},
            )
        assert {e["field"] for e in excinfo.value.errors} == {"params.a"}

    def test_inline_hints_need_guided_engine(self):
        payload = {"schema": 1, "params": {}}
        with pytest.raises(NautilusError, match="guided engine"):
            CampaignSpec(query="noc-frequency", engine="random", hints=payload)
        with pytest.raises(NautilusError, match="guided engine"):
            CampaignSpec(query="noc-frequency", engine="baseline", hints=payload)

    def test_inline_hints_roundtrip_from_json(self):
        from repro.queries import build_hints

        spec = CampaignSpec(
            query="noc-frequency", hints=hintset_to_json(build_hints("frequency"))
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_state_partitions(self):
        terminal = set(CampaignState.TERMINAL)
        in_flight = set(CampaignState.IN_FLIGHT)
        assert terminal | in_flight == set(CampaignState.ALL)
        assert not terminal & in_flight


class TestBuildSearch:
    def test_ga_with_dir_checkpoints(self, tiny_dataset, tmp_path):
        spec = CampaignSpec(query="noc-frequency", engine="baseline", generations=3)
        search = build_search(spec, tiny_dataset, campaign_dir=tmp_path)
        assert type(search) is GeneticSearch
        assert search.checkpoint_path == tmp_path / "checkpoint.json"

    def test_ga_without_dir_is_plain(self, tiny_dataset):
        spec = CampaignSpec(query="noc-frequency", engine="baseline", generations=3)
        search = build_search(spec, tiny_dataset)
        assert type(search) is GeneticSearch
        assert search.checkpoint_path is None

    def test_random_engine(self, tiny_dataset, tmp_path):
        spec = CampaignSpec(query="noc-frequency", engine="random", budget=5)
        search = build_search(spec, tiny_dataset, campaign_dir=tmp_path)
        assert isinstance(search, RandomSearch)

    def test_inline_hints_guide_the_engine(self, tiny_dataset):
        spec = CampaignSpec(
            query="noc-frequency",
            generations=3,
            confidence=0.9,
            hints={"schema": 1, "params": {"a": {"importance": 80, "bias": 1.0}}},
        )
        search = build_search(spec, tiny_dataset)
        assert search.label == "nautilus"
        assert search.hints.for_param("a").bias == 1.0
        # Spec-level confidence re-weights inline hints like a bundled kind.
        assert search.hints.confidence == 0.9

    def test_inline_hints_space_mismatch_fails_at_build(self, tiny_dataset):
        spec = CampaignSpec(
            query="noc-frequency",
            hints={"schema": 1, "params": {"num_vcs": {"bias": 1.0}}},
        )
        with pytest.raises(HintSpecError) as excinfo:
            build_search(spec, tiny_dataset)
        assert {e["field"] for e in excinfo.value.errors} == {"params.num_vcs"}

    def test_objective_override_drops_the_bundled_hints(self, noc_dataset):
        """An ``objective`` replaces the query's objective and its bundled
        hint kind: a nautilus spec without inline hints then runs the
        baseline's search, and inline hints still guide it."""
        objective = objective_from_expression("fmax_mhz/(luts+64*brams)", "max")

        def curve(**fields):
            spec = CampaignSpec(
                query="noc-frequency", generations=6, seed=4, **fields
            )
            search = build_search(spec, noc_dataset, objective=objective)
            assert search.objective is objective
            return search.run().curve()

        baseline = curve(engine="baseline")
        assert curve(engine="nautilus") == baseline
        hints = hintset_to_json(build_hints("frequency"))
        assert curve(engine="nautilus", hints=hints) != baseline

    def test_spec_seed_determinism(self, tiny_dataset):
        spec = CampaignSpec(query="noc-frequency", engine="baseline",
                            generations=4, seed=9)
        first = build_search(spec, tiny_dataset).run()
        second = build_search(spec, tiny_dataset).run()
        assert first.curve() == second.curve()


class TestMistypedSpecsOverHttp:
    """A mistyped field is a 400 at submission. Accepted, ``"priority":
    "hi"`` stopped the scheduler thread at its priority sort as soon as a
    second priority was queued, so no campaign advanced again."""

    def test_each_bad_type_is_a_400_and_the_scheduler_keeps_running(
        self, tmp_path, tiny_provider
    ):
        service = SearchService(
            tmp_path / "campaigns", port=0, dataset_provider=tiny_provider
        ).start()
        try:
            client = ServiceClient(port=service.port)
            for bad in BAD_FIELDS:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit({"query": "noc-frequency", **bad})
                assert excinfo.value.status == 400, bad
            assert client.list_campaigns() == []
            ids = [
                client.submit(CampaignSpec(
                    query="noc-frequency", engine="baseline", generations=6,
                    priority=priority,
                ))
                for priority in (0, 1)
            ]
            finals = [client.wait(cid, timeout=60) for cid in ids]
            assert [f["state"] for f in finals] == ["done", "done"]
        finally:
            service.stop()

    def test_store_with_well_typed_spec_recovers(self, tmp_path, tiny_provider):
        root = tmp_path / "campaigns"
        first = SearchService(root, port=0, dataset_provider=tiny_provider)
        first.start(run_scheduler=False)
        client = ServiceClient(port=first.port)
        ids = [
            client.submit(CampaignSpec(
                query="noc-frequency", engine="baseline", generations=6,
                priority=priority, max_evaluations=40, label="typed",
            ))
            for priority in (2, 0)
        ]
        first.scheduler.tick()
        first.stop()

        second = SearchService(root, port=0, dataset_provider=tiny_provider)
        second.start()
        try:
            client2 = ServiceClient(port=second.port)
            finals = [client2.wait(cid, timeout=60) for cid in ids]
        finally:
            second.stop()
        assert [f["state"] for f in finals] == ["done", "done"]
