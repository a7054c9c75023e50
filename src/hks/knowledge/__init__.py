"""Server-side knowledge store: logit cache, sample hashes, cluster hierarchy,
teacher builders, and a standalone HNSW index that no run builds."""
from .cache import KnowledgeCache
from .hashing import RandomProjectionEncoder
from .hierarchy import ClusterTree, Merge, agglomerate, build_hierarchy
from .hnsw import HnswIndex
from .teachers import (
    Granularity,
    fedcache_neighbors,
    fedcache_teacher,
    feddistill_teacher,
    fetch_teacher,
)

__all__ = [
    "KnowledgeCache",
    "RandomProjectionEncoder",
    "ClusterTree",
    "Merge",
    "agglomerate",
    "build_hierarchy",
    "HnswIndex",
    "Granularity",
    "fetch_teacher",
    "feddistill_teacher",
    "fedcache_neighbors",
    "fedcache_teacher",
]
