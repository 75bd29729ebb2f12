"""Colour refinement: the coarsest equitable partition of a graph that
refines a state's two classes, as a Quotient for dynamics.step to step on.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain, compress, groupby
from operator import itemgetter
from typing import Optional, Sequence

from .dynamics import Quotient

# refine gives up past max(_BUDGET_FLOOR, n // _BUDGET_SHARE) cells.  On
# graphs of 20,000 vertices with little symmetry (random with 6n or 30n
# edges, a random tree, a path and a 141 x 141 torus with one cooperator;
# 2 vCPUs, Python 3.11), giving up at n/32 cells took 0.009-0.022 s, no
# more than one step of every vertex from scratch (0.012-0.56 s), where
# n/8 took up to 0.047 s on the torus, three such steps.  The witnesses
# have far fewer cells: 92 of 32,760 vertices for the q=15 tree, 14 of
# 30,746 for SH p=8.  The floor keeps every small graph on its cells.
_BUDGET_FLOOR = 64
_BUDGET_SHARE = 32


def refine(adj: Sequence[Sequence[int]], bits: bytes) -> Optional[Quotient]:
    """The coarsest equitable partition of the graph with adjacency adj
    that refines the two classes of bits, as a Quotient without keys, or
    None once it would have more cells than the budget above.

    Worklist colour refinement (Cardon and Crochemore, TCS 1982; Paige and
    Tarjan, SIAM J. Comput. 1987).  It starts from the classes of equal
    (bit, degree), whose members all count the same neighbors among all
    vertices, and queues every cell but the largest.  Each cell taken from
    the queue splits every cell by its members' neighbor counts in it.  A
    cell split while queued queues every new piece; one split while not
    queued queues every piece but the largest, since counts into that
    piece are the counts into the cell before the split minus those into
    the other pieces.
    """
    n = len(adj)
    budget = max(_BUDGET_FLOOR, n // _BUDGET_SHARE)
    index: dict[tuple[int, int], int] = {}
    cell_of = [index.setdefault(key, len(index)) for key in zip(bits, map(len, adj))]
    if len(index) > budget:
        return None
    # Each cell's vertices, among them vertices since moved out: size
    # counts those left.  Every vertex is the int object its first
    # neighbor's adjacency holds, so that the lists make no int object.
    members: list[list[int]] = [[] for _ in index]
    for v, around in enumerate(map(adj.__getitem__, map(itemgetter(0), adj))):
        members[cell_of[v]].append(around[bisect_left(around, v)])
    size = list(map(len, members))
    queued = [True] * len(size)
    queued[size.index(max(size))] = False
    queue = list(compress(range(len(size)), queued))
    counts = [0] * n  # neighbors in the splitter, of the vertices it touches
    while queue:
        s = queue.pop()
        queued[s] = False
        if len(members[s]) > size[s]:
            stays = map(s.__eq__, map(cell_of.__getitem__, members[s]))
            members[s] = list(compress(members[s], stays))
        touched = []
        for w in chain.from_iterable(map(adj.__getitem__, members[s])):
            if not counts[w]:
                touched.append(w)
            counts[w] += 1
        touched.sort(key=cell_of.__getitem__)
        count = counts.__getitem__
        for k, run in groupby(touched, cell_of.__getitem__):
            pieces = [list(piece) for _, piece in groupby(sorted(run, key=count), count)]
            rest = size[k] - sum(map(len, pieces))  # untouched, they stay in k
            if not rest:
                if len(pieces) == 1:
                    continue
                pieces.sort(key=len)
                members[k] = pieces.pop()  # the largest piece stays k
            size[k] = rest or len(members[k])
            # Queue every new piece if k is queued, else every piece but the largest.
            largest = max(pieces, key=len)
            if queued[k] or len(largest) <= size[k]:
                largest = None
            else:
                queue.append(k)
                queued[k] = True
            for piece in pieces:
                j = len(size)
                members.append(piece)
                size.append(len(piece))
                for v in piece:
                    cell_of[v] = j
                queued.append(piece is not largest)
                if piece is not largest:
                    queue.append(j)
            if len(size) > budget:
                return None
        for w in touched:
            counts[w] = 0
    del counts, members
    first_of = dict(zip(reversed(cell_of), range(n - 1, -1, -1)))  # each cell's least vertex
    first = tuple(map(first_of.__getitem__, range(len(size))))
    links = tuple(tuple(sorted(Counter(map(cell_of.__getitem__, adj[v])).items())) for v in first)
    return Quotient(bytes(cell_of) if len(first) <= 256 else cell_of, first, links, None)
