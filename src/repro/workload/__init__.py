"""Workload and data generators standing in for the paper's datasets.

Every generator takes a ``backend_factory`` hook picking the storage
engine the instance is built on; ``disk_backend_factory`` (re-exported
here) builds straight onto the durable engine::

    simple_accidents(scale, backend_factory=disk_backend_factory(path))
"""

from ..storage.disk import disk_backend_factory
from .accidents import (AccidentScale, canonical_access_schema,
                        extended_access_schema, extended_accidents,
                        extended_schema, simple_accidents, simple_schema)
from .qgen import (JoinEdge, WorkloadConfig, accident_workload_config,
                   generate_workload, random_cq)
from .social import (SocialScale, generate_patterns, graph_search_pattern,
                     random_pattern, relational_social,
                     social_graph, social_graph_constraints,
                     social_relational_access, social_relational_schema)

__all__ = [
    "disk_backend_factory",
    "AccidentScale", "simple_schema", "simple_accidents",
    "extended_schema", "extended_accidents", "canonical_access_schema",
    "extended_access_schema",
    "JoinEdge", "WorkloadConfig", "accident_workload_config",
    "random_cq", "generate_workload",
    "SocialScale", "social_graph", "social_graph_constraints",
    "social_relational_schema", "social_relational_access",
    "relational_social",
    "graph_search_pattern", "random_pattern", "generate_patterns",
]
