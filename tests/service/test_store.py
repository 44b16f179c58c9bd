"""Tests for the on-disk campaign store."""

import json

import pytest

from repro.core import NautilusError
from repro.service import CampaignSpec, CampaignState, CampaignStore


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "campaigns")


@pytest.fixture
def spec():
    return CampaignSpec(query="fft-luts", engine="baseline", generations=5, seed=1)


class TestStore:
    def test_sequential_ids(self, store, spec):
        ids = [store.create(spec).id for _ in range(3)]
        assert ids == ["c000001", "c000002", "c000003"]

    def test_ids_survive_restart(self, store, spec):
        store.create(spec)
        store.create(spec)
        reopened = CampaignStore(store.root)
        assert reopened.create(spec).id == "c000003"

    def test_spec_persisted_verbatim(self, store, spec):
        campaign = store.create(spec)
        loaded = store.load(campaign.id)
        assert loaded.spec == spec
        assert loaded.state == CampaignState.QUEUED

    def test_status_roundtrip(self, store, spec):
        campaign = store.create(spec)
        campaign.state = CampaignState.FAILED
        campaign.error = "boom"
        campaign.generations_done = 4
        store.save_status(campaign)
        loaded = store.load(campaign.id)
        assert loaded.state == CampaignState.FAILED
        assert loaded.error == "boom"
        assert loaded.generations_done == 4

    def test_no_torn_files(self, store, spec):
        campaign = store.create(spec)
        store.save_status(campaign)
        store.save_result(campaign)
        assert not list(store.root.rglob("*.tmp"))

    def test_unknown_campaign(self, store):
        with pytest.raises(NautilusError, match="no campaign"):
            store.load("c999999")

    def test_load_all_sorted(self, store, spec):
        for _ in range(3):
            store.create(spec)
        assert [c.id for c in store.load_all()] == ["c000001", "c000002", "c000003"]

    def test_result_payload(self, store, spec):
        campaign = store.create(spec)
        campaign.state = CampaignState.DONE
        store.save_result(campaign)
        payload = store.load_result(campaign.id)
        assert payload["state"] == CampaignState.DONE
        assert json.loads(
            (store.campaign_dir(campaign.id) / "result.json").read_text()
        ) == payload

    def test_missing_result_is_none(self, store, spec):
        campaign = store.create(spec)
        assert store.load_result(campaign.id) is None

    def test_spans_appended_after_a_torn_line_survive(self, store, spec):
        campaign = store.create(spec)
        store.append_spans(campaign.id, [{"name": "run", "span_id": 1}])
        with open(store.spans_path(campaign.id), "a", encoding="utf-8") as fh:
            fh.write('{"name": "generation", "sp')  # killed mid-write
        store.append_spans(campaign.id, [{"name": "run", "span_id": 2}])
        assert [span["span_id"] for span in store.load_spans(campaign.id)] == [
            1, 2,
        ]
