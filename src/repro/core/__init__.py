"""The distance-signature index: the paper's primary contribution.

Module map (paper section → module):

* §3.1 signature + storage schema → :mod:`repro.core.signature`
* §3.2 retrieval / comparison / sorting → :mod:`repro.core.operations`
* §4 range / kNN / aggregation / ε-join → :mod:`repro.core.queries`
  (scalar reference) and :mod:`repro.core.vectorized` (batch engine)
* §5.1 category partition → :mod:`repro.core.categories`
* §5.2 construction + encoding → :mod:`repro.core.builder`,
  :mod:`repro.core.encoding`
* §5.3 compression → :mod:`repro.core.compression`
* §5.4 updates → :mod:`repro.core.update`,
  :mod:`repro.core.spanning_tree`
* facade → :mod:`repro.core.index`
"""

from repro.core.columnar import ColumnarSignatureStore
from repro.core.categories import (
    CategoryPartition,
    ExponentialPartition,
    optimal_exponent,
    optimal_first_boundary,
    optimal_partition,
    paper_evaluation_partition,
)
from repro.core.continuous import (
    PathSegment,
    continuous_knn,
    naive_continuous_knn,
    uba_continuous_knn,
)
from repro.core.cross_node import CrossNodePlan, plan_cross_node_compression
from repro.core.persistence import load_index, save_index
from repro.core.compression import (
    CompressionStats,
    compress_nodes,
    compress_table,
    resolve_component,
    signature_summation,
)
from repro.core.encoding import (
    BitReader,
    BitWriter,
    average_code_length,
    huffman_code_lengths,
    rzp_code,
    rzp_code_length,
    rzp_decode,
)
from repro.core.index import IndexStorageReport, SignatureIndex
from repro.core.interface import DistanceIndex
from repro.core.queries import KnnType
from repro.core.signature import (
    LINK_HERE,
    LINK_NONE,
    DistanceRange,
    ObjectDistanceTable,
    SignatureComponent,
    SignatureTable,
)
from repro.core.spanning_tree import ObjectSpanningTrees
from repro.core.update import UpdateReport
from repro.core.vectorized import decode_signature_row, decode_signature_rows

__all__ = [
    "DistanceIndex",
    "SignatureIndex",
    "ColumnarSignatureStore",
    "PathSegment",
    "continuous_knn",
    "naive_continuous_knn",
    "uba_continuous_knn",
    "CrossNodePlan",
    "plan_cross_node_compression",
    "save_index",
    "load_index",
    "IndexStorageReport",
    "KnnType",
    "CategoryPartition",
    "ExponentialPartition",
    "optimal_exponent",
    "optimal_first_boundary",
    "optimal_partition",
    "paper_evaluation_partition",
    "DistanceRange",
    "SignatureComponent",
    "SignatureTable",
    "ObjectDistanceTable",
    "ObjectSpanningTrees",
    "LINK_HERE",
    "LINK_NONE",
    "CompressionStats",
    "compress_table",
    "compress_nodes",
    "resolve_component",
    "signature_summation",
    "UpdateReport",
    "decode_signature_row",
    "decode_signature_rows",
    "rzp_code",
    "rzp_code_length",
    "rzp_decode",
    "huffman_code_lengths",
    "average_code_length",
    "BitReader",
    "BitWriter",
]
