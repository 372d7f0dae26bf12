"""The matching-to-design reduction behind the problem's hardness.

``reduce_matching_to_design`` maps a bipartite graph (max degree 3) to
a design instance over an explicit probe list such that maximum
induced matchings correspond exactly to maximum decodable pool subsets
at redundancy 1; it doubles as a hard-instance generator since the
design problem inherits the matching problem's inapproximability.

In the reduction, each right vertex v gets a distinct A/T word x_v (v in
binary, A=0, T=1); the primer of a left vertex u is its neighbors' words
joined by C separators, and every extension set is {C, G}. C/G never
occur inside any x_v, so windows crossing a separator or an extension
match nothing: the primer's spectrum is exactly its neighbor set and no
probe is reachable only through extensions. The probe list stores
reverse complements of the x_v so that probe ids equal right-vertex
indices.
"""

from dataclasses import dataclass

from .dnaseq import reverse_complement
from .instance import Pool, Primer, ProblemInstance
from .probespace import ExplicitSpace


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on dense vertex sets 0..n_left-1 and 0..n_right-1."""

    n_left: int
    n_right: int
    edges: tuple

    def __post_init__(self):
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("vertex counts must be non-negative")
        edges = tuple(sorted((int(u), int(v)) for u, v in self.edges))
        for u, v in edges:
            if not (0 <= u < self.n_left and 0 <= v < self.n_right):
                raise ValueError("edge (%d, %d) out of range" % (u, v))
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", edges)


def reduce_matching_to_design(graph):
    """Encode induced matchings of a bipartite graph as a design instance.

    Requires every left vertex to have degree 1-3 and every right vertex
    degree >= 1. The returned instance has one single-primer pool per
    left vertex, redundancy 1, and probe ids equal to right-vertex
    indices; its maximum decodable subset size equals the graph's
    maximum induced matching size. Each probe is as long as a right-vertex word.
    """
    neighbors = [[] for _ in range(graph.n_left)]
    deg_right = [0] * graph.n_right
    for u, v in graph.edges:  # sorted, so every list ascends
        neighbors[u].append(v)
        deg_right[v] += 1
    for u, nbrs in enumerate(neighbors):
        if not 1 <= len(nbrs) <= 3:
            raise ValueError("left vertex %d has degree %d; need 1-3" % (u, len(nbrs)))
    for v, d in enumerate(deg_right):
        if d < 1:
            raise ValueError("right vertex %d is isolated" % v)

    bits = max(1, (graph.n_right - 1).bit_length())
    words = ["".join("T" if (v >> (bits - 1 - t)) & 1 else "A" for t in range(bits))
             for v in range(graph.n_right)]
    space = ExplicitSpace([reverse_complement(w) for w in words], descriptor="list:<reduction>")
    pools = []
    for u, nbrs in enumerate(neighbors):
        seq = "C".join(words[v] for v in nbrs)
        pools.append(Pool(id=u, primers=(Primer(seq, "CG", "."),)))
    return ProblemInstance(pools, space, redundancy=1)
