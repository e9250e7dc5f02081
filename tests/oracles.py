"""Independent reference implementations that tests compare the package
against.  Each one computes the same value as a package routine by a
different, slower route."""


def partitions_in_box(rows: int, cols: int, _first: int | None = None):
    """All partitions fitting in a rows x cols box, as tuples."""
    limit = cols if _first is None else min(cols, _first)
    yield ()
    if rows == 0:
        return
    for head in range(1, limit + 1):
        for tail in partitions_in_box(rows - 1, cols, head):
            yield (head,) + tail


def chi_grassmann_by_partitions(n: int, k: int) -> int:
    """chi(RG_k^n) as sum (-1)^|lambda| over the partitions lambda in a
    k x (n-k) box, one per Schubert cell."""
    return sum((-1) ** sum(p) for p in partitions_in_box(k, n - k))


def chains_under_inclusion(simplices) -> frozenset:
    """The simplices of a barycentric subdivision: every chain of faces under
    strict inclusion, grown by comparing every pair of faces."""
    supersets = {s: [t for t in simplices if s < t] for s in simplices}
    chains = set()

    def grow(chain: tuple) -> None:
        chains.add(frozenset(chain))
        for t in supersets[chain[-1]]:
            grow(chain + (t,))

    for s in simplices:
        grow((s,))
    return frozenset(chains)
