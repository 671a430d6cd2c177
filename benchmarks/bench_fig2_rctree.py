"""F2 -- Figure 2: a tree, its recursive clustering, and its RC tree.

Regenerates the worked example on the paper's 12-vertex tree {a..l}:
prints which vertices rake / compress / finalize in each contraction round
(Figure 2b) and an indented rendering of the RC tree (Figure 2c), then
validates the defining structural properties.  The exact clustering depends
on the contraction coins (as it does in the paper -- any legal clustering
is a valid Figure 2b), so the rendering is parameterized by the seed.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.paperdata import FIG2_NAMES, fig2_links
from repro.runtime import CostModel
from repro.trees import DynamicForest
from repro.trees.cluster import ClusterKind
from tests.helpers import reference_rc


def _build(seed: int = 2) -> DynamicForest:
    f = DynamicForest(len(FIG2_NAMES), seed=seed, cost=CostModel())
    f.batch_link(fig2_links())
    return f


def _name(rc, internal: int, ternary) -> str:
    owner = ternary.owner(internal)
    base = FIG2_NAMES[owner] if owner < len(FIG2_NAMES) else f"v{owner}"
    return base if internal == ternary.canonical(owner) else f"{base}'"


def _render_rc_tree(forest: DynamicForest) -> str:
    rc, tern = forest.rc, forest.ternary
    root = rc.root_cluster(tern.canonical(0))
    lines: list[str] = []

    def rec(node, depth):
        pad = "  " * depth
        if node.kind is ClusterKind.VERTEX:
            lines.append(f"{pad}vertex {_name(rc, node.rep, tern)}")
            return
        if node.kind is ClusterKind.EDGE:
            a, b = node.boundary
            lines.append(
                f"{pad}edge ({_name(rc, a, tern)}, {_name(rc, b, tern)})"
            )
            return
        kind = node.kind.value
        lines.append(
            f"{pad}{kind.upper()} cluster {_name(rc, node.rep, tern)}"
            f" (level {node.level})"
        )
        for c in sorted(node.children, key=lambda c: (c.kind.value, c.rep, c.eid)):
            rec(c, depth + 1)

    rec(root, 0)
    return "\n".join(lines)


def test_regenerate_figure2(record_table, record_json, benchmark):
    # Built on the RCForest reference: the rendering below walks the
    # per-node cluster graph (vleaf / _dec / ClusterNode children), which
    # only the reference exposes.  The production engine builds the
    # identical contraction (snapshot-equal).
    with reference_rc():
        forest = benchmark.pedantic(_build, rounds=3, iterations=1)
    rc, tern = forest.rc, forest.ternary

    # Figure 2b: contraction schedule, round by round.
    rounds: dict[int, list[str]] = {}
    for v in rc.vleaf:
        lvl = rc._top[v]
        d = rc._dec[lvl][v]
        act = {"R": "rake", "C": "compress", "F": "finalize"}[d[0]]
        rounds.setdefault(lvl, []).append(f"{_name(rc, v, tern)}:{act}")
    sched_rows = [[lvl, ", ".join(sorted(acts))] for lvl, acts in sorted(rounds.items())]
    schedule = format_table(
        ["round", "contractions"],
        sched_rows,
        title="Figure 2b: recursive clustering by contraction round",
    )

    rendering = "Figure 2c: RC tree\n" + _render_rc_tree(forest)
    record_table("fig2_rctree_example", schedule + "\n\n" + rendering)
    record_json(
        "fig2_rctree_example",
        forest.cost,
        params={"n": len(FIG2_NAMES), "seed": 2},
    )

    # Structural validation (the properties the figure illustrates).
    root = rc.root_cluster(tern.canonical(0))
    assert root.kind is ClusterKind.NULLARY
    for v in rc.vleaf:
        assert rc.root_cluster(v) is root  # single component, single root
    rc.check_invariants()


def test_wallclock_build(benchmark):
    benchmark(_build)
