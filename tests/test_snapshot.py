"""The shared-memory / mmap snapshot plane (``ring-snapshot/v1``).

The contract under test: a snapshot *attach* reconstructs views — not
copies — of the ring, its wavelet-matrix columns and the sparse
backend's CSR matrices, and an engine over the attached index is
bit-identical (pairs AND operation counters) to one over the built
index.  Segment lifecycle: created once, attachable many times,
fully released (no dangling ``/dev/shm`` entry) after ``close()``.
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro.core.engine import RingRPQEngine
from repro.errors import ConstructionError
from repro.ring.snapshot import (
    SNAPSHOT_FORMAT,
    SharedIndexHandle,
    attach_index,
    attach_token,
    load_snapshot,
    save_snapshot,
    snapshot_index,
)
from repro.serve.keys import index_fingerprint
from repro.succinct.bitvector import BitVector

WORKLOAD = [
    "(?x, p0, ?y)",
    "(?x, p0/p1, ?y)",
    "(?x, (p0|p1)*, ?y)",
    "(?x, ^p0/p1+, ?y)",
    "(?x, p2?/p3, ?y)",
]


def _fingerprints(index, queries=WORKLOAD):
    """Bit-identity probe: (pairs, counters) per query, fresh engine."""
    engine = RingRPQEngine(index, prepare_cache_size=0)
    out = []
    for query in queries:
        result = engine.evaluate(query, timeout=60)
        out.append((sorted(result.pairs),
                    result.stats.operation_counts()))
    return out


class TestManifest:
    def test_manifest_shape(self, kg_index):
        manifest, buffers = snapshot_index(kg_index)
        assert manifest["format"] == SNAPSHOT_FORMAT
        assert manifest["fingerprint"] == index_fingerprint(kg_index)
        assert manifest["n"] == len(kg_index.ring)
        assert set(manifest["buffers"]) == set(buffers)
        for name, meta in manifest["buffers"].items():
            assert meta["offset"] % 64 == 0, name
            arr = buffers[name]
            assert np.dtype(meta["dtype"]) == arr.dtype
            assert tuple(meta["shape"]) == arr.shape
        assert manifest["total_bytes"] >= max(
            m["offset"] for m in manifest["buffers"].values()
        )

    def test_buffers_are_views_not_copies(self, kg_index):
        """Flattening reuses the index's own arrays (the single copy
        happens at segment/file write time, not here)."""
        manifest, buffers = snapshot_index(kg_index)
        words_ext, _, _ = kg_index.ring.L_p._levels[0].batch_data()
        assert buffers["lp.level0.words"] is words_ext

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOTASNAP" + b"\0" * 64)
        with pytest.raises(ConstructionError, match="bad magic"):
            load_snapshot(path)

    def test_bad_format_rejected(self, kg_index):
        manifest, buffers = snapshot_index(kg_index)
        manifest = dict(manifest, format="ring-snapshot/v999")
        with pytest.raises(ConstructionError, match="unsupported"):
            attach_index(manifest, b"")


class TestSharedMemoryPlane:
    def test_attach_is_bit_identical(self, kg_index):
        expected = _fingerprints(kg_index)
        with SharedIndexHandle.create(kg_index) as handle:
            token = pickle.loads(pickle.dumps(handle.token()))
            attached = attach_token(token)
            assert _fingerprints(attached) == expected
            assert index_fingerprint(attached) == index_fingerprint(
                kg_index
            )

    def test_matrices_attach_when_present(self, kg_index):
        pytest.importorskip("scipy")
        from repro.matrix.matrices import PredicateMatrices

        store = PredicateMatrices.from_index(kg_index)
        with SharedIndexHandle.create(kg_index) as handle:
            attached = attach_token(handle.token())
            view_store = attached._matrix_store
            assert view_store.predicates == store.predicates
            for pid in store.predicates:
                a = store.matrix(pid)
                b = view_store.matrix(pid)
                assert (a != b).nnz == 0, pid

    def test_segment_released_on_close(self, kg_index):
        handle = SharedIndexHandle.create(kg_index)
        name = handle.name
        assert handle.nbytes > 0
        seg = _dev_shm(name)
        if seg is not None:  # Linux: the segment is a /dev/shm file
            assert seg.exists()
        handle.close()
        handle.close()  # idempotent
        if seg is not None:
            assert not seg.exists(), "segment leaked after close()"

    def test_no_dangling_segments_across_lifecycle(self, kg_index):
        """Leak check: repeated create/attach/close cycles leave the
        shared-memory namespace exactly as they found it."""
        before = _segment_names()
        for _ in range(3):
            handle = SharedIndexHandle.create(kg_index)
            attached = attach_token(handle.token())
            _fingerprints(attached, WORKLOAD[:1])
            del attached
            gc.collect()
            handle.close()
        assert _segment_names() == before

    def test_local_attach(self, kg_index):
        expected = _fingerprints(kg_index, WORKLOAD[:2])
        handle = SharedIndexHandle.create(kg_index)
        try:
            local = handle.attach_local()
            assert _fingerprints(local, WORKLOAD[:2]) == expected
        finally:
            del local
            gc.collect()
            handle.close()


class TestFilePlane:
    def test_mmap_roundtrip(self, kg_index, tmp_path):
        path = tmp_path / "index.snap"
        written = save_snapshot(kg_index, path)
        assert written == path.stat().st_size
        loaded = load_snapshot(path, mmap=True)
        assert _fingerprints(loaded) == _fingerprints(kg_index)
        assert index_fingerprint(loaded) == index_fingerprint(kg_index)

    def test_read_roundtrip(self, kg_index, tmp_path):
        path = tmp_path / "index.snap"
        save_snapshot(kg_index, path)
        loaded = load_snapshot(path, mmap=False)
        assert _fingerprints(loaded) == _fingerprints(kg_index)

    def test_ring_only_snapshot(self, kg_index, tmp_path):
        path = tmp_path / "ring_only.snap"
        save_snapshot(kg_index, path, include_matrices=False)
        loaded = load_snapshot(path)
        assert not hasattr(loaded, "_matrix_store")
        assert _fingerprints(loaded, WORKLOAD[:2]) == _fingerprints(
            kg_index, WORKLOAD[:2]
        )


class TestDamagedFiles:
    """A truncated or damaged snapshot file fails with a typed error."""

    @pytest.fixture(scope="class")
    def snapshot_bytes(self, kg_index, tmp_path_factory):
        path = tmp_path_factory.mktemp("snap") / "index.snap"
        save_snapshot(kg_index, path)
        manifest, _ = snapshot_index(kg_index)
        last_end = max(
            meta["offset"]
            + int(np.prod(meta["shape"])) * np.dtype(meta["dtype"]).itemsize
            for meta in manifest["buffers"].values()
        )
        padding = manifest["total_bytes"] - last_end
        return path.read_bytes(), padding

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("cut", [8, 12, 30, 200, "half", "last byte"])
    def test_truncated_file_rejected(self, snapshot_bytes, tmp_path, cut,
                                     mmap):
        data, padding = snapshot_bytes
        if cut == "half":
            cut = len(data) // 2
        elif cut == "last byte":
            cut = len(data) - padding - 1
        path = tmp_path / "cut.snap"
        path.write_bytes(data[:cut])
        with pytest.raises(ConstructionError, match="truncated"):
            load_snapshot(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_cut_inside_trailing_padding_loads(self, kg_index,
                                               snapshot_bytes, tmp_path,
                                               mmap):
        data, padding = snapshot_bytes
        assert padding > 0
        path = tmp_path / "cut.snap"
        path.write_bytes(data[:len(data) - padding])
        loaded = load_snapshot(path, mmap=mmap)
        assert _fingerprints(loaded, WORKLOAD[:2]) == _fingerprints(
            kg_index, WORKLOAD[:2]
        )

    def test_damaged_manifest_rejected(self, snapshot_bytes, tmp_path):
        data, _ = snapshot_bytes
        path = tmp_path / "bad.snap"
        path.write_bytes(data[:16] + b"\xff" + data[17:])
        with pytest.raises(ConstructionError, match="manifest"):
            load_snapshot(path)

    def test_buffer_outside_payload_rejected(self, kg_index):
        manifest, _ = snapshot_index(kg_index)
        with pytest.raises(ConstructionError, match="truncated"):
            attach_index(manifest, b"\0" * (manifest["total_bytes"] // 2))


class TestViewConstruction:
    def test_bitvector_view_parity(self, kg_index):
        bv = kg_index.ring.L_p._levels[0]
        words_ext, cum64, n = bv.batch_data()
        view = BitVector.from_packed(words_ext, cum64, n)
        assert len(view) == len(bv)
        assert view.num_ones == bv.num_ones
        positions = np.arange(0, n + 1, dtype=np.int64)
        assert np.array_equal(
            view.rank1_many(positions), bv.rank1_many(positions)
        )
        step = max(1, n // 64)
        for i in range(0, n, step):
            assert view[i] == bv[i]
            assert view.rank1(i) == bv.rank1(i)
        for j in range(0, view.num_ones, max(1, view.num_ones // 32)):
            assert view.select1(j) == bv.select1(j)

    def test_bitvector_view_sentinel_invariant(self):
        from repro.errors import InvariantViolation

        with pytest.raises(InvariantViolation):
            BitVector.from_packed(
                np.zeros(2, dtype=np.uint64),
                np.zeros(3, dtype=np.int64),
                64,
            )

    def test_wavelet_level_count_validated(self, kg_index):
        from repro.succinct.wavelet_matrix import WaveletMatrix

        wm = kg_index.ring.L_p
        with pytest.raises(ConstructionError, match="levels"):
            WaveletMatrix.from_parts(
                wm._levels[:1] * (wm.height + 1),
                len(wm), wm.sigma, wm._counts, wm._class_cum,
                wm._bottom_start,
            )


def _dev_shm(name: str):
    from pathlib import Path

    root = Path("/dev/shm")
    return root / name if root.is_dir() else None


def _segment_names() -> set:
    from pathlib import Path

    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in root.glob("psm_*")}
