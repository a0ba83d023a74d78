"""Zero-copy columnar signature store with mmap persistence (format v2).

The distance signature of §3.1/§5 is fundamentally a dense ``(N, D)``
matrix of (category, link) pairs.  The legacy on-disk format (version 1,
:mod:`repro.core.persistence`) serializes it as the paper's bit stream —
faithful to the §5.2 layout, but loading it costs a Python loop over
every component plus one Dijkstra per object to rebuild the object
distance table.  This module is the production-shaped alternative: the
**entire index state** held as contiguous, width-minimal numpy arrays

* ``categories`` — ``(N, D)`` logical categories, ``uint8`` while the
  partition has at most 255 categories (``uint16`` beyond);
* ``links`` — ``(N, D)`` backtracking links (sentinels included) in the
  narrowest signed dtype with headroom for the node degree;
* ``compressed`` / ``bases`` — the §5.3 flag matrix and base bookkeeping;
* ``boundaries`` / ``object_nodes`` — the partition-boundary and
  object-rank vectors;
* ``object_distances`` — the §3.2.2 object-to-object table (``NaN``
  marks pairs dropped by the last-category rule);
* ``tree_distances`` / ``tree_parents`` — optionally, the §5.4 spanning
  trees, so a reloaded index can keep applying incremental updates.

Persisted, each array is one raw little-endian binary file described by
``manifest.json``; loading is ``np.memmap`` in copy-on-write mode —
O(1) regardless of index size, page-cache-shared between every process
mapping the same files, and still privately writable so §5.4 updates
work on a loaded index without touching the snapshot.

Loading a v2 directory hands the mapped arrays to the index's
``SignatureTable`` as they are, so the batch engine reads the mapped
category matrix directly.

Trade-off vs. the §5 compressed encoding: format v2 spends
``N*D*(8 + link bits)`` of storage where the bit stream spends roughly
``N*D*(code + flag + link bits)`` — typically 2–4x larger on disk — and
buys O(1) zero-copy loads in exchange.  The size
*accounting* (`storage_report`, the simulated pager) still models the
paper's compressed layout either way.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import IndexError_

__all__ = ["ColumnarSignatureStore", "FORMAT_VERSION"]

#: On-disk format version this module reads and writes.
FORMAT_VERSION = 2

_MANIFEST = "manifest.json"

#: Arrays every manifest must describe; the rest are optional.
_REQUIRED = (
    "categories",
    "links",
    "compressed",
    "boundaries",
    "object_nodes",
    "object_distances",
)
_OPTIONAL = ("bases", "tree_distances", "tree_parents")


def _category_dtype(unreachable: int) -> np.dtype:
    """Narrowest unsigned dtype holding 0..unreachable."""
    return np.dtype(np.min_scalar_type(int(unreachable)))


def _link_dtype(max_degree: int) -> np.dtype:
    """Narrowest signed dtype for links in ``[-2, R)`` with growth headroom.

    ``int16`` unless the degree approaches its range — §5.4 edge
    insertions can raise the maximum degree after the dtype is chosen,
    so the bound is deliberately generous rather than bit-minimal.
    """
    return np.dtype(np.int16 if max_degree < 2**15 - 1 else np.int32)


def _atomic_tofile(array: np.ndarray, path: Path) -> None:
    """Write ``array`` to ``path`` via a temp file + rename.

    The rename keeps an already-mmapped previous version valid (its
    inode survives until unmapped), which is what makes re-compacting a
    directory that is currently loaded safe.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            array.tofile(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ColumnarSignatureStore:
    """The whole index as contiguous arrays, memory-shared and mmappable."""

    def __init__(
        self,
        *,
        categories: np.ndarray,
        links: np.ndarray,
        compressed: np.ndarray,
        boundaries: np.ndarray,
        object_nodes: np.ndarray,
        object_distances: np.ndarray,
        bases: np.ndarray | None = None,
        tree_distances: np.ndarray | None = None,
        tree_parents: np.ndarray | None = None,
        max_degree: int,
        drop_last: bool = True,
    ) -> None:
        self.categories = categories
        self.links = links
        self.compressed = compressed
        self.bases = bases
        self.boundaries = boundaries
        self.object_nodes = object_nodes
        self.object_distances = object_distances
        self.tree_distances = tree_distances
        self.tree_parents = tree_parents
        self.max_degree = int(max_degree)
        self.drop_last = bool(drop_last)
        self._validate_shapes()

    def _validate_shapes(self) -> None:
        n, d = self.categories.shape
        if self.links.shape != (n, d) or self.compressed.shape != (n, d):
            raise IndexError_(
                f"columnar store shape mismatch: categories {(n, d)}, "
                f"links {self.links.shape}, compressed {self.compressed.shape}"
            )
        if self.bases is not None and self.bases.shape != (n, d):
            raise IndexError_(
                f"columnar store shape mismatch: bases {self.bases.shape} "
                f"for categories {(n, d)}"
            )
        if self.object_nodes.shape != (d,):
            raise IndexError_(
                f"columnar store has {self.object_nodes.shape[0]} object "
                f"nodes for {d} signature components"
            )
        if self.object_distances.shape != (d, d):
            raise IndexError_(
                f"columnar object distance table is "
                f"{self.object_distances.shape}, expected {(d, d)}"
            )
        trees = (self.tree_distances, self.tree_parents)
        if any(t is not None for t in trees):
            if any(t is None for t in trees):
                raise IndexError_(
                    "columnar store has only one of the two tree arrays"
                )
            if (
                self.tree_distances.shape != (d, n)
                or self.tree_parents.shape != (d, n)
            ):
                raise IndexError_(
                    f"columnar tree arrays are "
                    f"{self.tree_distances.shape}/{self.tree_parents.shape}, "
                    f"expected {(d, n)}"
                )

    # ------------------------------------------------------------------
    # construction from a live index
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index) -> "ColumnarSignatureStore":
        """Snapshot ``index``'s state, width-minimizing dtypes.

        The index is left untouched; arrays already in the narrow dtype
        are shared rather than copied.
        """
        table = index.table
        partition = table.partition
        trees = index.trees
        return cls(
            categories=np.ascontiguousarray(
                table.categories.astype(
                    _category_dtype(partition.unreachable), copy=False
                )
            ),
            links=np.ascontiguousarray(
                table.links.astype(_link_dtype(table.max_degree), copy=False)
            ),
            compressed=table.compressed,
            bases=table.bases,
            boundaries=np.asarray(partition.boundaries, dtype=np.float64),
            object_nodes=np.asarray(list(index.dataset), dtype=np.int64),
            object_distances=index.object_table._matrix,
            tree_distances=None if trees is None else trees.distances,
            tree_parents=None if trees is None else trees.parents,
            max_degree=table.max_degree,
            drop_last=index.object_table._drop_last_category,
        )

    # ------------------------------------------------------------------
    # shape / introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """N: node signatures held."""
        return self.categories.shape[0]

    @property
    def num_objects(self) -> int:
        """D: components per signature."""
        return self.categories.shape[1]

    @property
    def has_trees(self) -> bool:
        """Whether §5.4 spanning trees are part of the store."""
        return self.tree_distances is not None

    @property
    def nbytes(self) -> int:
        """Total bytes across all held arrays."""
        return sum(array.nbytes for _, array in self._arrays())

    def _arrays(self) -> list[tuple[str, np.ndarray]]:
        pairs = [
            ("categories", self.categories),
            ("links", self.links),
            ("compressed", self.compressed),
            ("boundaries", self.boundaries),
            ("object_nodes", self.object_nodes),
            ("object_distances", self.object_distances),
        ]
        for name in _OPTIONAL:
            array = getattr(self, name)
            if array is not None:
                pairs.append((name, array))
        return pairs

    # ------------------------------------------------------------------
    # persistence (format v2)
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        """Write every array plus ``manifest.json`` under ``directory``.

        Each file is written atomically (temp + rename), so re-saving
        over a directory that is currently mmapped by this or another
        process never tears a reader.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: dict = {
            "format": FORMAT_VERSION,
            "max_degree": self.max_degree,
            "drop_last": self.drop_last,
            "arrays": {},
        }
        for name, array in self._arrays():
            array = np.ascontiguousarray(array)
            filename = f"{name}.bin"
            _atomic_tofile(array, directory / filename)
            manifest["arrays"][name] = {
                "file": filename,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
            }
        payload = json.dumps(manifest, indent=2).encode() + b"\n"
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=_MANIFEST + ".")
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, directory / _MANIFEST)
        # Stale arrays from a previous save (e.g. trees dropped) would
        # shadow the manifest's truth on a future save; remove them.
        kept = {spec["file"] for spec in manifest["arrays"].values()}
        for path in directory.glob("*.bin"):
            if path.name not in kept:
                path.unlink()

    @classmethod
    def load(
        cls, directory: str | Path, *, mode: str = "c"
    ) -> "ColumnarSignatureStore":
        """Memory-map a saved store — O(1), zero-copy, validated.

        ``mode="c"`` (copy-on-write, the default) shares clean pages
        with every other process mapping the same files while keeping
        the arrays privately writable, which is exactly what both the
        multi-process server and post-load §5.4 updates need.  Sizes
        are checked against the manifest before mapping, so truncation
        or corruption fails loudly here instead of as a wrong answer.
        """
        directory = Path(directory)
        manifest_path = directory / _MANIFEST
        if not manifest_path.is_file():
            raise IndexError_(
                f"{directory}: no columnar manifest (not a format-"
                f"{FORMAT_VERSION} index)"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise IndexError_(
                f"{manifest_path}: corrupted manifest ({exc})"
            ) from None
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_VERSION:
            raise IndexError_(
                f"{manifest_path}: unsupported columnar format "
                f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}"
            )
        specs = manifest.get("arrays")
        if not isinstance(specs, dict):
            raise IndexError_(f"{manifest_path}: manifest has no array table")
        arrays: dict[str, np.ndarray | None] = {}
        for name in _REQUIRED + _OPTIONAL:
            spec = specs.get(name)
            if spec is None:
                if name in _REQUIRED:
                    raise IndexError_(
                        f"{manifest_path}: manifest missing required array "
                        f"{name!r}"
                    )
                arrays[name] = None
                continue
            arrays[name] = cls._map_array(directory, name, spec, mode)
        try:
            max_degree = int(manifest["max_degree"])
        except (KeyError, TypeError, ValueError):
            raise IndexError_(
                f"{manifest_path}: manifest missing max_degree"
            ) from None
        return cls(
            categories=arrays["categories"],
            links=arrays["links"],
            compressed=arrays["compressed"],
            bases=arrays["bases"],
            boundaries=arrays["boundaries"],
            object_nodes=arrays["object_nodes"],
            object_distances=arrays["object_distances"],
            tree_distances=arrays["tree_distances"],
            tree_parents=arrays["tree_parents"],
            max_degree=max_degree,
            drop_last=bool(manifest.get("drop_last", True)),
        )

    @staticmethod
    def _map_array(
        directory: Path, name: str, spec, mode: str
    ) -> np.ndarray:
        try:
            dtype = np.dtype(str(spec["dtype"]))
            shape = tuple(int(extent) for extent in spec["shape"])
            path = directory / str(spec["file"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexError_(
                f"{directory}: corrupted manifest entry for {name!r} ({exc})"
            ) from None
        if path.name != spec["file"] or not path.is_file():
            raise IndexError_(f"{path}: missing array file for {name!r}")
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        actual = path.stat().st_size
        if actual != expected:
            raise IndexError_(
                f"{path}: {name} holds {actual} bytes, expected {expected} "
                f"for shape {shape} {dtype} (truncated or corrupted index)"
            )
        if expected == 0:
            return np.zeros(shape, dtype=dtype)
        return np.memmap(path, dtype=dtype, mode=mode, shape=shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarSignatureStore(nodes={self.num_nodes}, "
            f"objects={self.num_objects}, "
            f"categories_dtype={self.categories.dtype}, "
            f"trees={self.has_trees}, nbytes={self.nbytes})"
        )
