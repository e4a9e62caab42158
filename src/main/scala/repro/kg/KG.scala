package repro.kg

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Summary statistics of a KG — the quantities reported in Table I. */
final case class KGStats(nodes: Long, edges: Long, nTypes: Long, eTypes: Long)

/** A knowledge graph held as Spark DataFrames.
  *
  * @param schema    static type/community metadata
  * @param triples   edges as ``(s: Long, p: Int, o: Long)``
  * @param nodeTypes node-type table as ``(id: Long, ntype: Int)``
  *
  * Literals are modelled as nodes of dedicated literal node types (the paper
  * counts literal classes in |C|), so the triple table is homogeneous.
  */
final case class KG(schema: KGSchema, triples: DataFrame, nodeTypes: DataFrame) {

  /** Materialise both tables and truncate their lineage (eager local
    * checkpoint). Flattening matters as much as caching here: generators
    * and samplers build deep plans, and every downstream query re-analyses
    * its inputs' full logical plan — a flat RDD scan keeps that O(1).
    *
    * Each table is first coalesced (narrow, no shuffle) to at most one
    * partition per core: the generator unions one range per edge type, and
    * without this every later scan of the resident KG would run ~100 tiny
    * tasks. Tables with fewer partitions keep theirs.
    */
  def cached(): KG = {
    val cores = triples.sparkSession.sparkContext.defaultParallelism
    def flat(df: DataFrame): DataFrame = df.coalesce(cores).localCheckpoint(true)
    KG(schema, flat(triples), flat(nodeTypes))
  }

  /** Free both tables (benches call this between KGs to bound memory);
    * the KG must not be read afterwards.
    */
  def uncache(): KG = {
    repro.release(triples); repro.release(nodeTypes)
    this
  }

  /** Table I statistics, computed from the data (not the schema) so tests
    * catch generator bugs such as empty types or dropped predicates.
    */
  def stats: KGStats = {
    val row = triples
      .agg(count(lit(1)) as "edges", countDistinct(col("p")) as "etypes")
      .head()
    val nrow = nodeTypes
      .agg(count(lit(1)) as "nodes", countDistinct(col("ntype")) as "ntypes")
      .head()
    KGStats(nrow.getLong(0), row.getLong(0), nrow.getLong(1), row.getLong(1))
  }

  /** Undirected adjacency view ``(u, v)`` — each triple contributes both
    * directions; used by random walks, BFS distance and entropy metrics.
    */
  def undirected: DataFrame =
    triples.select(col("s") as "u", col("o") as "v")
      .union(triples.select(col("o") as "u", col("s") as "v"))

  /** Node ids of one node type (by name) as a single-column DF ``id``. */
  def nodesOfType(typeName: String): DataFrame =
    nodeTypes.filter(schema.nodeType(typeName).contains(col("id"))).select(col("id"))
}

object KG {
  /** Deterministic uniform(0,1) pseudo-random from arbitrary columns —
    * unlike ``rand()`` it does not depend on partitioning, so generators
    * and samplers are reproducible across sessions and parallelism levels.
    */
  def hashRand(salt: Int, cols: Column*): Column =
    (pmod(hash((cols :+ lit(salt)): _*), lit(1000000)).cast("double") + 0.5) / 1000000.0
}
