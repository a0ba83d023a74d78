"""On-disk persistence: the storage schema materialized and round-tripped."""

import numpy as np
import pytest

from repro.core import KnnType, SignatureIndex
from repro.core.persistence import (
    deserialize_table,
    load_index,
    save_index,
    serialize_table,
)
from repro.errors import EncodingError, IndexError_


@pytest.fixture(scope="module", params=["raw", "encoded", "compressed"])
def encoding(request):
    return request.param


class TestTableRoundTrip:
    def test_round_trip_preserves_everything(self, sig_index, encoding):
        table = sig_index.table
        data = serialize_table(table, encoding=encoding)
        from repro.core.persistence import _count_bits

        bits = _count_bits(table, encoding)
        assert len(data) == (bits + 7) // 8
        loaded = deserialize_table(
            data,
            bits,
            table.partition,
            table.num_nodes,
            table.num_objects,
            table.max_degree,
            encoding=encoding,
        )
        assert np.array_equal(loaded.links, table.links)
        if encoding == "compressed":
            assert np.array_equal(loaded.compressed, table.compressed)
            mask = ~table.compressed
            assert np.array_equal(
                loaded.categories[mask], table.categories[mask]
            )
        else:
            assert np.array_equal(loaded.categories, table.categories)

    def test_stream_has_no_slack(self, sig_index, encoding):
        """Declaring one bit too many must fail: the stream is exact."""
        table = sig_index.table
        data = serialize_table(table, encoding=encoding)
        from repro.core.persistence import _count_bits

        bits = _count_bits(table, encoding)
        with pytest.raises(EncodingError):
            deserialize_table(
                data + b"\x00",
                bits + 9,
                table.partition,
                table.num_nodes,
                table.num_objects,
                table.max_degree,
                encoding=encoding,
            )

    def test_unknown_encoding_rejected(self, sig_index):
        with pytest.raises(IndexError_):
            serialize_table(sig_index.table, encoding="zip")

    def test_encoded_stream_matches_size_accounting(self, sig_index):
        """The emitted encoded stream's category bits equal the §5.2
        accounting (links differ: disk needs sentinel headroom)."""
        table = sig_index.table
        from repro.core.persistence import _count_bits, _link_bits

        bits = _count_bits(table, "encoded")
        disk_link_bits = _link_bits(table.max_degree)
        category_bits = bits - (
            table.num_nodes * table.num_objects * disk_link_bits
        )
        accounted = table.total_bits("encoded") - (
            table.num_nodes * table.num_objects * table.link_bits()
        )
        assert category_bits == accounted


class TestIndexRoundTrip:
    def test_save_load_answers_identically(self, sig_index, tmp_path):
        save_index(sig_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        for node in (0, 17, 133):
            assert loaded.knn(node, 4) == sig_index.knn(node, 4)
            assert loaded.range_query(node, 40.0) == sig_index.range_query(
                node, 40.0
            )

    def test_loaded_index_verifies(self, sig_index, tmp_path):
        save_index(sig_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        loaded.verify(sample_nodes=6, seed=0)

    def test_loaded_categories_match_original(self, sig_index, tmp_path):
        save_index(sig_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        # After resolution, logical categories equal the originals.
        assert np.array_equal(
            loaded.table.categories, sig_index.table.categories
        )

    def test_uncompressed_index_round_trip(self, small_net, small_objs, tmp_path):
        index = SignatureIndex.build(
            small_net, small_objs, backend="scipy", compress=False
        )
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.stored_kind == "encoded"
        assert np.array_equal(loaded.table.categories, index.table.categories)

    def test_bad_directory_rejected(self, tmp_path):
        (tmp_path / "meta.txt").write_text("garbage\n")
        (tmp_path / "network.txt").write_text("x\n")
        with pytest.raises(IndexError_):
            load_index(tmp_path)


class TestEngineFidelity:
    """Save/load restores the query-engine choice."""

    def test_scalar_engine_round_trips(self, small_net, small_objs, tmp_path):
        index = SignatureIndex.build(
            small_net, small_objs, backend="scipy", query_engine="scalar"
        )
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.query_engine == "scalar"

    @staticmethod
    def _assert_retired_lines_load(
        sig_index, directory, *, format, engine, cache_spec
    ):
        """Save ``sig_index`` with the meta lines older releases wrote for
        a ``decoded_cache`` and a ``query_engine`` choice; the snapshot
        must load on the vectorized engine, answer bit-identically to its
        source index, and drop the retired lines when saved again."""
        save_index(sig_index, directory, format=format)
        meta_path = directory / "meta.txt"
        lines = [
            f"query_engine {engine}" if line.startswith("query_engine")
            else line
            for line in meta_path.read_text().splitlines()
        ]
        meta_path.write_text(
            "\n".join(lines + [f"decoded_cache {cache_spec}"]) + "\n"
        )
        loaded = load_index(directory)
        assert loaded.query_engine == "vectorized"
        nodes = list(range(0, sig_index.network.num_nodes, 9))
        for index in (sig_index, loaded):
            index.reset_counters()
        want = (
            sig_index.range_query_batch(nodes, 100.0, with_distances=True),
            sig_index.knn_batch(nodes, 3, knn_type=KnnType.EXACT_DISTANCES),
            sig_index.counter.logical_reads,
            sig_index.decompressions,
        )
        got = (
            loaded.range_query_batch(nodes, 100.0, with_distances=True),
            loaded.knn_batch(nodes, 3, knn_type=KnnType.EXACT_DISTANCES),
            loaded.counter.logical_reads,
            loaded.decompressions,
        )
        assert got == want
        save_index(loaded, directory)
        meta = meta_path.read_text()
        assert "query_engine vectorized" in meta
        assert "decoded_cache" not in meta

    def test_bounded_decoded_cache_round_trips(self, sig_index, tmp_path):
        """A v2 snapshot saved with ``query_engine columnar`` and a
        48-row decoded cache (engine and cache are both retired)."""
        self._assert_retired_lines_load(
            sig_index, tmp_path / "idx",
            format=2, engine="columnar", cache_spec="48",
        )

    def test_unbounded_decoded_cache_round_trips(self, sig_index, tmp_path):
        """A v1 snapshot saved with an unbounded decoded cache."""
        self._assert_retired_lines_load(
            sig_index, tmp_path / "idx",
            format=1, engine="vectorized", cache_spec="unbounded",
        )

    def test_legacy_meta_without_engine_lines_loads(self, sig_index, tmp_path):
        """Indexes saved before these meta lines existed still load."""
        save_index(sig_index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.txt"
        kept = [
            line
            for line in meta_path.read_text().splitlines()
            if not line.startswith(("query_engine", "decoded_cache"))
        ]
        meta_path.write_text("\n".join(kept) + "\n")
        loaded = load_index(tmp_path / "idx")
        assert loaded.query_engine == "vectorized"
