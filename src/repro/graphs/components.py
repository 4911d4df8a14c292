"""Weakly connected components on Spark (for Table 2's LWCC column).

Implemented as iterative min-label propagation over the undirected view
of the edge list, expressed entirely in the DataFrame API: each round a
node adopts the minimum label among itself and its neighbors, until no
label changes. Social graphs have small effective diameter, so the loop
converges in a handful of rounds. A local union-find (`components_local`)
serves as the test oracle.
"""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

# Min-label propagation settles in (component diameter + 1) rounds; social
# graphs have small diameter.
MAX_ITER = 64


def components_spark(edges: DataFrame) -> DataFrame:
    """(node, component) with component = min node id reachable (weakly).

    ``edges`` is a directed ``src``/``dst`` DataFrame; weak connectivity
    symmetrizes it. Raises ``RuntimeError`` if the labels have not
    converged after ``MAX_ITER`` rounds.
    """
    sym = edges.select("src", "dst").union(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )
    sym = sym.distinct().localCheckpoint(eager=True)
    labels = (
        sym.select(F.col("src").alias("node"))
        .distinct()
        .withColumn("component", F.col("node"))
        .localCheckpoint(eager=True)
    )
    for _ in range(MAX_ITER):
        # Candidate label from each neighbor, then min with own label.
        nbr_min = (
            sym.join(labels, sym.dst == labels.node)
            .select(sym.src.alias("node"), "component")
            .groupBy("node")
            .agg(F.min("component").alias("nbr_component"))
        )
        # localCheckpoint truncates the join lineage — without it each
        # iteration replans the whole history and the loop goes quadratic.
        new_labels = (
            labels.join(nbr_min, "node", "left")
            .select(
                "node",
                F.least(
                    F.col("component"),
                    F.coalesce(F.col("nbr_component"), F.col("component")),
                ).alias("component"),
            )
            .localCheckpoint(eager=True)
        )
        changed = (
            new_labels.alias("a")
            .join(labels.alias("b"), "node")
            .where(F.col("a.component") != F.col("b.component"))
            .limit(1)
            .count()
        )
        labels.unpersist()
        labels = new_labels
        if changed == 0:
            break
    else:
        raise RuntimeError(f"labels did not converge in {MAX_ITER} rounds")
    sym.unpersist()
    return labels


def lwcc_size_spark(edges: DataFrame) -> int:
    """Size of the largest weakly connected component."""
    comp = components_spark(edges)
    row = (
        comp.groupBy("component")
        .agg(F.count("*").alias("size"))
        .agg(F.max("size").alias("lwcc"))
        .collect()[0]
    )
    return int(row["lwcc"])


def components_local(edges: pd.DataFrame, n: int) -> np.ndarray:
    """Union-find oracle: component[i] = min node id in i's weak component."""
    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(edges["src"].to_numpy(), edges["dst"].to_numpy()):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    return np.array([find(i) for i in range(n)])


def lwcc_size_local(edges: pd.DataFrame, n: int) -> int:
    """Oracle LWCC size, counting only nodes that appear in the edge list."""
    comp = components_local(edges, n)
    present = np.zeros(n, dtype=bool)
    present[edges["src"].to_numpy()] = True
    present[edges["dst"].to_numpy()] = True
    if not present.any():
        return 0
    return int(np.bincount(comp[present]).max())
