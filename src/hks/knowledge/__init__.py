"""Server-side knowledge store: logit cache, hash index, cluster hierarchy."""
from .cache import KnowledgeCache, LogitRecord, SampleId
from .hashing import RandomProjectionEncoder, HashVector
from .hierarchy import ClusterTree, Merge, agglomerate, build_hierarchy
from .hnsw import HnswIndex, exact_knn
from .teachers import (
    Granularity,
    fedcache_neighbors,
    fedcache_teacher,
    feddistill_teacher,
    fetch_teacher,
)

__all__ = [
    "KnowledgeCache",
    "LogitRecord",
    "SampleId",
    "RandomProjectionEncoder",
    "HashVector",
    "ClusterTree",
    "Merge",
    "agglomerate",
    "build_hierarchy",
    "HnswIndex",
    "exact_knn",
    "Granularity",
    "fetch_teacher",
    "feddistill_teacher",
    "fedcache_neighbors",
    "fedcache_teacher",
]
