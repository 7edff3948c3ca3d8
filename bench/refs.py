"""Reference answers for the benchmark's correctness gate.

Everything here works on plain edge lists and bitmasks and imports nothing
from cqcount, so a defect in a timed layer cannot hide behind a reference that
shares its code.  Each function is small enough to check by reading.
"""

from itertools import combinations, permutations, product


def neighbour_masks(n, edges):
    """Bitmask of each vertex's neighbours in an undirected loop-free graph."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _members(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _step(nbr, masks):
    """Vertices one edge beyond each mask: OR of the neighbour masks."""
    out = []
    for mask in masks:
        acc = 0
        for w in _members(mask):
            acc |= nbr[w]
        out.append(acc)
    return out


def _walk_masks(nbr, length):
    """reach[u] = vertices at the end of a walk of the given length from u."""
    reach = [1 << u for u in range(len(nbr))]
    for _ in range(length):
        reach = _step(nbr, reach)
    return reach


def _count_tuples(allowed, k):
    """k-tuples in which every pair (with repetition) is allowed, where
    allowed[u] is a symmetric bitmask relation."""
    def rec(i, mask):
        if i == k:
            return 1
        return sum(rec(i + 1, mask & allowed[x]) for x in _members(mask))

    return rec(0, (1 << len(allowed)) - 1)


def family_answers(kind, k, n, edges):
    """Answer count of gadgets.family_query(kind, k) on a graph, from the
    family's shape alone."""
    nbr = neighbour_masks(n, edges)
    if kind == "psi":
        # leaves x_1..x_k share a neighbour: the union of N(y)^k over y
        def rec(i, common):
            if i == k:
                return 1
            return sum(rec(i + 1, common & nbr[x]) for x in range(n)
                       if common & nbr[x])
        return rec(0, (1 << n) - 1)
    if kind == "poly":
        # consecutive x_i, x_{i+1} are joined by a walk of length two
        two = _walk_masks(nbr, 2)
        counts = [1] * n
        for _ in range(k - 1):
            counts = [sum(counts[u] for u in _members(two[v])) for v in range(n)]
        return sum(counts)
    if kind == "subdivided":
        # every pair of free vertices is joined by a walk of length two
        return _count_tuples(_walk_masks(nbr, 2), k)
    if kind == "omega" and k == 2:
        # omega_2 is a path x_1 - g - g - g - x_2
        return sum(bin(m).count("1") for m in _walk_masks(nbr, 4))
    if kind == "gamma":
        # x_i matched to y_i, the y_i pairwise adjacent: union over ordered
        # k-cliques of the product of their neighbourhoods
        answers = set()
        for ys in permutations(range(n), k):
            if all(nbr[a] >> b & 1 for a, b in combinations(ys, 2)):
                answers.update(product(*(list(_members(nbr[y])) for y in ys)))
        return len(answers)
    raise ValueError("no reference for %s_%d" % (kind, k))


def dominating_set_counts(n, edges, k):
    """Number of dominating sets of each size 1..k."""
    closed = [m | 1 << v for v, m in enumerate(neighbour_masks(n, edges))]
    full = (1 << n) - 1
    out = []
    for size in range(1, k + 1):
        count = 0
        for subset in combinations(range(n), size):
            covered = 0
            for v in subset:
                covered |= closed[v]
            count += covered == full
        out.append(count)
    return out


def count_answers(q_n, q_edges, free, t_n, t_edges, domains=None,
                  distinct=(), non_edges=()):
    """Answers of a graph query: assignments of the free vertices that keep
    each pair in distinct apart, map no pair in non_edges onto an edge, and
    extend to a homomorphism.  domains[v], when given, lists the target
    vertices query vertex v may take."""
    qnbr = neighbour_masks(q_n, q_edges)
    tnbr = neighbour_masks(t_n, t_edges)
    if domains is None:
        allowed = [(1 << t_n) - 1] * q_n
    else:
        allowed = [sum(1 << w for w in domains[v]) for v in range(q_n)]
    free = list(free)
    order = free + [v for v in range(q_n) if v not in free]

    def candidates(v, image):
        mask = allowed[v]
        for u in _members(qnbr[v]):
            if u in image:
                mask &= tnbr[image[u]]
        return mask

    def extends(i, image):
        if i == len(order):
            return True
        v = order[i]
        for w in _members(candidates(v, image)):
            image[v] = w
            found = extends(i + 1, image)
            del image[v]
            if found:
                return True
        return False

    def answers(i, image):
        if i == len(free):
            if any(image[a] == image[b] for a, b in distinct) or \
                    any(tnbr[image[a]] >> image[b] & 1 for a, b in non_edges):
                return 0
            return int(extends(i, image))
        v = order[i]
        total = 0
        for w in _members(candidates(v, image)):
            image[v] = w
            total += answers(i + 1, image)
            del image[v]
        return total

    return answers(0, {})


def partial_automorphisms(q_n, q_edges, free):
    """Bijections of the free set that extend to an automorphism of the
    query graph."""
    eset = set(frozenset(e) for e in q_edges)
    fset = set(free)
    seen = set()
    for perm in permutations(range(q_n)):
        if all(perm[x] in fset for x in free) and \
                all(frozenset((perm[a], perm[b])) in eset for a, b in q_edges):
            seen.add(tuple(perm[x] for x in free))
    return len(seen)


def reflexive_complement_text(n, edges):
    """The reflexive complement of a graph in the `structure` text format:
    every ordered pair, loops included, that is not an edge."""
    nbr = neighbour_masks(n, edges)
    lines = ["structure", "signature E/2", "domain %d" % n]
    lines += ["E %d %d" % (u, v) for u in range(n) for v in range(n)
              if not nbr[u] >> v & 1]
    return "\n".join(lines) + "\n"
