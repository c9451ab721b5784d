"""ObjectHistory against a naive reference model.

The model keeps a history the way Fig 9 states it: a list of
``(update, version)`` pairs in apply order, plus (for csets) the counts
folded below the GC watermark.  Every query is a scan of that list.
Hypothesis drives both through multi-site apply sequences -- regular and
cset updates, several updates of one transaction to one object (equal
seqnos), GC, recovery truncation and a checkpoint round trip -- and
every query must agree at every step.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CSet,
    CSetAdd,
    CSetDel,
    DataUpdate,
    ObjectHistory,
    ObjectId,
    ObjectKind,
    VectorTimestamp,
    Version,
)

REG = ObjectId("c", "reg", ObjectKind.REGULAR)
SET = ObjectId("c", "set", ObjectKind.CSET)
N_SITES = 3


def fold(cset, entries):
    for update, _version in entries:
        (cset.add if isinstance(update, CSetAdd) else cset.rem)(update.elem)


class Model:
    """One object's history as an apply-order list, queried by scans."""

    def __init__(self, oid):
        self.oid = oid
        self.entries = []  # (update, version), apply order
        self.base = CSet()
        self.absorbed = []  # versions dropped below the watermark

    def visible(self, vts):
        return [e for e in self.entries if vts.visible(e[1])]

    def latest_visible(self, vts):
        seen = self.visible(vts)
        return seen[-1] if seen else None

    def unmodified_since(self, vts):
        return all(vts.visible(v) for v in self.absorbed + [v for _u, v in self.entries])

    def cset_value(self, vts):
        cset = self.base.copy()
        fold(cset, self.visible(vts))
        return cset

    def gc_before(self, vts):
        if self.oid.kind is ObjectKind.CSET:
            folded = self.visible(vts)
            fold(self.base, folded)
            self.absorbed += [v for _u, v in folded]
            self.entries = [e for e in self.entries if not vts.visible(e[1])]
            return len(folded)
        seen = self.visible(vts)
        if not seen:
            return 0
        kept, dropped = [], []
        for entry in self.entries:
            (kept if entry is seen[-1] or not vts.visible(entry[1]) else dropped).append(entry)
        self.absorbed += [v for _u, v in dropped]
        self.entries = kept
        return len(dropped)

    def truncate(self, keep):
        before = len(self.entries)
        self.entries = [e for e in self.entries if e[1] in keep]
        return before - len(self.entries)


def assert_agree(hist, model, probes):
    assert len(hist) == len(model.entries)
    assert hist.versions() == [v for _u, v in model.entries]
    assert [(e.update, e.version) for e in hist] == model.entries
    for probe in probes:
        assert [(e.update, e.version) for e in hist.visible_entries(probe)] == model.visible(probe)
        assert hist.unmodified_since(probe) == model.unmodified_since(probe)
        if hist.oid.kind is ObjectKind.CSET:
            assert hist.cset_value(probe) == model.cset_value(probe)
        else:
            latest = hist.latest_visible(probe)
            expected = model.latest_visible(probe)
            assert (latest and (latest.update, latest.version)) == expected


_APPEND = st.tuples(
    st.just("append"),
    st.integers(0, N_SITES - 1),  # origin site
    st.booleans(),                # same transaction as the previous append
    st.sampled_from(["data", "add", "del"]),
    st.integers(0, 3),            # element
)  # fmt: skip
_GC = st.tuples(st.just("gc"), st.lists(st.integers(0, 8), min_size=N_SITES, max_size=N_SITES))
_TRUNCATE = st.tuples(st.just("truncate"), st.integers(0, N_SITES - 1), st.integers(0, 3))
_ROUNDTRIP = st.tuples(st.just("roundtrip"))
_STEPS = st.lists(
    st.one_of(_APPEND, _APPEND, _APPEND, _GC, _TRUNCATE, _ROUNDTRIP), min_size=1, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(_STEPS, st.lists(st.lists(st.integers(0, 4), min_size=N_SITES, max_size=N_SITES), max_size=4))
def test_history_agrees_with_apply_order_scan(steps, deltas):
    hists = {REG: ObjectHistory(REG), SET: ObjectHistory(SET)}
    models = {REG: Model(REG), SET: Model(SET)}
    seqnos = [0] * N_SITES
    watermark = VectorTimestamp([0] * N_SITES)
    previous = None  # (oid, version) of the last append, if the last step was one
    for n, step in enumerate(steps):
        if step[0] == "append":
            _op, site, same_tx, kind, elem = step
            oid = REG if kind == "data" else SET
            if same_tx and previous is not None and previous[0] == oid:
                version = previous[1]
            else:
                seqnos[site] += 1
                version = Version(site, seqnos[site])
            if kind == "data":
                update = DataUpdate(REG, b"d%d" % n)
            else:
                update = (CSetAdd if kind == "add" else CSetDel)(SET, elem)
            hists[oid].append(update, version)
            models[oid].entries.append((update, version))
            previous = (oid, version)
            continue
        previous = None
        if step[0] == "gc":
            # A watermark never passes what was applied and never moves back.
            cap = VectorTimestamp([min(c, s) for c, s in zip(step[1], seqnos)])
            watermark = watermark.merge(cap)
            for oid in (REG, SET):
                assert hists[oid].gc_before(watermark, fold_cset=True) == models[oid].gc_before(
                    watermark
                )
        elif step[0] == "truncate":
            # Recovery abandons a site's suffix, never below the watermark.
            _op, site, extra = step
            cut = min(seqnos[site], watermark[site] + extra)
            for oid in (REG, SET):
                keep = {v for v in hists[oid].versions() if v.site != site or v.seqno <= cut}
                assert hists[oid].truncate_versions(keep) == models[oid].truncate(keep)
            seqnos[site] = cut
        else:
            hists = {oid: ObjectHistory.load(oid, hist.dump()) for oid, hist in hists.items()}
        probes = [watermark] + [
            VectorTimestamp([w + d for w, d in zip(watermark, delta)]) for delta in deltas
        ]
        for oid in (REG, SET):
            assert_agree(hists[oid], models[oid], probes)
    probes = [VectorTimestamp([w + d for w, d in zip(watermark, delta)]) for delta in deltas]
    for oid in (REG, SET):
        assert_agree(hists[oid], models[oid], [watermark, VectorTimestamp(seqnos)] + probes)


def test_cross_site_winner_is_the_later_applied_not_the_larger_seqno():
    hist = ObjectHistory(REG)
    hist.append(DataUpdate(REG, b"first"), Version(0, 5))
    hist.append(DataUpdate(REG, b"second"), Version(1, 1))
    assert hist.latest_visible(VectorTimestamp([5, 1, 0])).update.data == b"second"


def test_version_outside_the_site_universe_is_rejected():
    hist = ObjectHistory(REG)
    with pytest.raises(ValueError, match="outside the site universe"):
        hist.append(DataUpdate(REG, b"x"), Version(-1, 1))
    hist.append(DataUpdate(REG, b"x"), Version(N_SITES, 1))
    narrow = VectorTimestamp([9] * N_SITES)
    for read in (hist.latest_visible, hist.unmodified_since, hist.visible_entries):
        with pytest.raises(ValueError, match="outside the site universe"):
            read(narrow)
    cset = ObjectHistory(SET)
    cset.append(CSetAdd(SET, 1), Version(N_SITES, 1))
    with pytest.raises(ValueError, match="outside the site universe"):
        cset.cset_value(narrow)


def test_one_entry_history_footprint():
    """A replicated object's history is the bulk of a preloaded site's
    memory: one history holding one entry stays within 450 bytes."""
    n = 20_000
    oids = [ObjectId("c", "k%d" % i, ObjectKind.REGULAR) for i in range(n)]
    updates = [DataUpdate(oid, b"v") for oid in oids]
    version = Version(3, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        histories = []
        for oid, update in zip(oids, updates):
            hist = ObjectHistory(oid)
            hist.append(update, version)
            histories.append(hist)
        per_history = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert per_history <= 450, "%.0f bytes per one-entry history" % per_history
