"""Format v2 persistence: round-trips, migration, and corruption paths.

v1 (the §5.2 bit stream) stays loadable forever; v2 (raw columnar
arrays + manifest) is the default and must answer every query — and
charge every page — exactly like the v1-loaded twin.  ``repro compact``
migrates a v1 directory in place.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import KnnType, SignatureIndex, load_index, save_index
from repro.errors import IndexError_


@pytest.fixture(scope="module")
def tree_index(small_net, small_objs):
    """A compressed index with spanning trees (updates survive reload)."""
    return SignatureIndex.build(
        small_net.copy(), small_objs, backend="scipy", keep_trees=True
    )


def _query_fingerprint(index, nodes, radius=30.0, k=3):
    index.counter.reset()
    ranges = index.range_query_batch(nodes, radius, with_distances=True)
    knns = index.knn_batch(nodes, k, knn_type=KnnType.EXACT_DISTANCES)
    return ranges, knns, index.counter.logical_reads


class TestRoundTrip:
    def test_v2_is_default_and_round_trips(self, sig_index, tmp_path):
        save_index(sig_index, tmp_path / "idx")
        magic = (tmp_path / "idx" / "meta.txt").read_text().splitlines()[0]
        assert magic == "repro-signature-index 2"
        assert not (tmp_path / "idx" / "signatures.bin").exists()
        loaded = load_index(tmp_path / "idx")
        nodes = list(range(0, sig_index.network.num_nodes, 9))
        assert _query_fingerprint(loaded, nodes) == _query_fingerprint(
            sig_index, nodes
        )

    def test_v1_still_saves_and_loads(self, sig_index, tmp_path):
        save_index(sig_index, tmp_path / "idx", format=1)
        magic = (tmp_path / "idx" / "meta.txt").read_text().splitlines()[0]
        assert magic == "repro-signature-index 1"
        loaded = load_index(tmp_path / "idx")
        nodes = list(range(0, sig_index.network.num_nodes, 9))
        assert _query_fingerprint(loaded, nodes) == _query_fingerprint(
            sig_index, nodes
        )

    def test_v1_to_v2_migration_identical(self, sig_index, tmp_path):
        """v1 load → save v2 → v2 load: same answers, same page counts."""
        v1_dir = tmp_path / "idx"
        save_index(sig_index, v1_dir, format=1)
        from_v1 = load_index(v1_dir)
        save_index(from_v1, v1_dir, format=2)
        assert not (v1_dir / "signatures.bin").exists()
        from_v2 = load_index(v1_dir)
        nodes = list(range(0, sig_index.network.num_nodes, 9))
        assert _query_fingerprint(from_v2, nodes) == _query_fingerprint(
            from_v1, nodes
        )

    def test_compact_cli_migrates_in_place(self, sig_index, tmp_path):
        v1_dir = tmp_path / "idx"
        save_index(sig_index, v1_dir, format=1)
        assert cli_main(["compact", str(v1_dir)]) == 0
        magic = (v1_dir / "meta.txt").read_text().splitlines()[0]
        assert magic == "repro-signature-index 2"
        loaded = load_index(v1_dir)
        nodes = list(range(0, sig_index.network.num_nodes, 9))
        assert _query_fingerprint(loaded, nodes) == _query_fingerprint(
            sig_index, nodes
        )

    def test_compact_cli_engine_switch(self, sig_index, tmp_path):
        save_index(sig_index, tmp_path / "idx", format=1)
        assert (
            cli_main(["compact", str(tmp_path / "idx"), "--engine", "scalar"])
            == 0
        )
        loaded = load_index(tmp_path / "idx")
        assert loaded.query_engine == "scalar"

    def test_object_distances_preserved_exactly(self, sig_index, tmp_path):
        save_index(sig_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        got = loaded.object_table._matrix
        want = sig_index.object_table._matrix
        assert np.array_equal(got, want, equal_nan=True)
        assert loaded.object_table.dropped_pairs == (
            sig_index.object_table.dropped_pairs
        )


class TestTreesAndUpdates:
    def test_trees_round_trip(self, tree_index, tmp_path):
        save_index(tree_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.trees is not None
        assert np.array_equal(
            loaded.trees.distances,
            tree_index.trees.distances,
            equal_nan=True,
        )
        assert np.array_equal(
            loaded.trees.parents, tree_index.trees.parents
        )

    def test_update_after_v2_load(self, tree_index, tmp_path, small_objs):
        """A v2-loaded index accepts §5.4 updates (copy-on-write pages)
        and the on-disk snapshot stays pristine."""
        save_index(tree_index, tmp_path / "idx")
        before = {
            p.name: p.read_bytes()
            for p in (tmp_path / "idx" / "columnar").iterdir()
        }
        loaded = load_index(tmp_path / "idx")
        v, w = loaded.network.neighbors(0)[0]
        loaded.set_edge_weight(0, v, w * 3.0)
        oracle = SignatureIndex.build(
            loaded.network, small_objs, backend="scipy"
        )
        nodes = list(range(0, loaded.network.num_nodes, 9))
        assert loaded.range_query_batch(nodes, 30.0) == (
            oracle.range_query_batch(nodes, 30.0)
        )
        after = {
            p.name: p.read_bytes()
            for p in (tmp_path / "idx" / "columnar").iterdir()
        }
        assert before == after  # the mutation never reached the disk


class TestCorruption:
    def _saved(self, sig_index, tmp_path):
        save_index(sig_index, tmp_path / "idx")
        return tmp_path / "idx"

    def test_garbage_meta_rejected(self, tmp_path):
        (tmp_path / "idx").mkdir()
        (tmp_path / "idx" / "meta.txt").write_text("not an index\n")
        with pytest.raises(IndexError_):
            load_index(tmp_path / "idx")

    def test_missing_columnar_dir(self, sig_index, tmp_path):
        directory = self._saved(sig_index, tmp_path)
        import shutil

        shutil.rmtree(directory / "columnar")
        with pytest.raises(IndexError_):
            load_index(directory)

    def test_corrupted_manifest(self, sig_index, tmp_path):
        directory = self._saved(sig_index, tmp_path)
        (directory / "columnar" / "manifest.json").write_text("{broken")
        with pytest.raises(IndexError_):
            load_index(directory)

    def test_missing_required_array(self, sig_index, tmp_path):
        directory = self._saved(sig_index, tmp_path)
        manifest = json.loads(
            (directory / "columnar" / "manifest.json").read_text()
        )
        del manifest["arrays"]["categories"]
        (directory / "columnar" / "manifest.json").write_text(
            json.dumps(manifest)
        )
        with pytest.raises(IndexError_):
            load_index(directory)

    def test_truncated_array_file(self, sig_index, tmp_path):
        directory = self._saved(sig_index, tmp_path)
        target = directory / "columnar" / "categories.bin"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(IndexError_, match="truncated or corrupted"):
            load_index(directory)

    def test_wrong_future_format_rejected(self, sig_index, tmp_path):
        directory = self._saved(sig_index, tmp_path)
        manifest = json.loads(
            (directory / "columnar" / "manifest.json").read_text()
        )
        manifest["format"] = 99
        (directory / "columnar" / "manifest.json").write_text(
            json.dumps(manifest)
        )
        with pytest.raises(IndexError_):
            load_index(directory)

    def test_mismatched_network_rejected(self, sig_index, tmp_path, grid5):
        """Swapping in a different network must fail the shape check."""
        directory = self._saved(sig_index, tmp_path)
        from repro.network.io import save_network

        save_network(grid5, directory / "network.txt")
        with pytest.raises(IndexError_):
            load_index(directory)

    def test_save_rejects_unknown_format(self, sig_index, tmp_path):
        with pytest.raises(IndexError_):
            save_index(sig_index, tmp_path / "idx", format=3)
