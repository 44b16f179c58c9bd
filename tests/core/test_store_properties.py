"""Property tests for the row store's round trip (``PersistentCache``).

Random ``put_many`` batches over two spaces and several campaigns, with
duplicates, infeasible outcomes and transient exceptions, go through two
store instances over one root — two writers, so the files also gather
the duplicate rows that concurrent daemons leave. After every batch a
fresh instance must read back exactly the first row written for each
design, with its campaign, and no transient failure.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChoiceParam,
    DesignSpace,
    InfeasibleDesignError,
    IntParam,
    PersistentCache,
)

FP = "fp-prop"
SPACES = (
    DesignSpace("p", [IntParam("a", 0, 5), ChoiceParam("c", ("x", "y"))]),
    DesignSpace("q", [IntParam("z", 0, 7)]),
)
GENOMES = (
    [SPACES[0].genome({"a": a, "c": c}) for a in range(6) for c in ("x", "y")],
    [SPACES[1].genome({"z": z}) for z in range(8)],
)

_entries = st.tuples(
    st.integers(0, 1),  # space
    st.integers(0, 11),  # design (folded into the space's size)
    st.sampled_from(("metrics", "infeasible", "transient")),
    st.floats(allow_nan=False),
)
_batches = st.lists(
    st.tuples(
        st.integers(0, 1),  # which writer
        st.sampled_from(("", "c1", "c2", "c3")),
        st.lists(_entries, max_size=8),
    ),
    min_size=1,
    max_size=6,
)


def _outcome(kind: str, value: float):
    if kind == "infeasible":
        return InfeasibleDesignError("no route")
    if kind == "transient":
        return RuntimeError("license server down")
    return {"m": value}


def _first_wins(rows):
    index = {}
    for key, metrics, campaign in rows:
        index.setdefault(key, (metrics, campaign))
    return index


class _Model:
    """What a store instance knows, and what the files hold."""

    def __init__(self):
        self.disk = {space.name: [] for space in SPACES}
        #: writer -> space -> first-wins index, loaded on first use
        self.views = [{}, {}]

    def put(self, writer: int, entries, campaign: str) -> int:
        """``entries`` are ``(genome, kind, value)``; returns rows written."""
        written = 0
        for space in SPACES:
            stored = [
                (genome.key[1], None if kind == "infeasible" else {"m": value},
                 campaign)
                for genome, kind, value in entries
                if genome.space is space and kind != "transient"
            ]
            if not stored:
                continue
            view = self.views[writer].setdefault(
                space.name, _first_wins(self.disk[space.name])
            )
            fresh = _first_wins(row for row in stored if row[0] not in view)
            self.disk[space.name].extend(
                (key, metrics, origin) for key, (metrics, origin) in fresh.items()
            )
            view.update(fresh)
            written += len(fresh)
        return written

    def rows(self, space) -> list:
        return list(_first_wins(self.disk[space.name]).items())


def _read_back(root: Path) -> list:
    fresh = PersistentCache(root)
    return [fresh.rows(space.name, space.param_names, FP) for space in SPACES]


class TestStoreRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_batches)
    def test_fresh_instance_reads_back_the_first_rows(self, batches):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            writers = (PersistentCache(root), PersistentCache(root))
            model = _Model()
            for writer, campaign, drawn in batches:
                entries = [
                    (GENOMES[s][d % len(GENOMES[s])], kind, value)
                    for s, d, kind, value in drawn
                ]
                batch = [(g, _outcome(kind, value)) for g, kind, value in entries]
                expected = model.put(writer, entries, campaign)
                assert writers[writer].put_many(batch, FP, campaign) == expected
                assert _read_back(root) == [model.rows(s) for s in SPACES]

            files = sorted(root.glob("*.jsonl"))
            on_disk = sum(len(model.disk[s.name]) for s in SPACES)
            distinct = sum(len(model.rows(s)) for s in SPACES)
            report = PersistentCache(root).compact()
            assert (report["rows"], report["reclaimed"]) == (
                distinct, on_disk - distinct
            )
            assert _read_back(root) == [model.rows(s) for s in SPACES]
            compacted = [path.read_bytes() for path in files]
            again = PersistentCache(root).compact()
            assert (again["rows"], again["reclaimed"]) == (distinct, 0)
            assert [path.read_bytes() for path in files] == compacted

            for path in files:  # a writer killed mid-line
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write('{"values": [1, "x"], "metr')
            assert _read_back(root) == [model.rows(s) for s in SPACES]
            torn = PersistentCache(root).compact()
            assert (torn["rows"], torn["reclaimed"]) == (distinct, len(files))
            assert [path.read_bytes() for path in files] == compacted
