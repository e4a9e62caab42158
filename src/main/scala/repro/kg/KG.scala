package repro.kg

import scala.collection.mutable

import org.apache.spark.{HashPartitioner, Partitioner}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.hash.Murmur3_x86_32

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
  def cached(): KG = KG(schema, KG.resident(triples), KG.resident(nodeTypes))

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
  def stats: KGStats = statsAnd(None)._1

  /** [[stats]] and, read by its one Spark job, the ``(id, ntype)`` rows of
    * the nodes in ``t``'s range, sorted by id: what a trainer needs of its
    * targets and of the graph, in one pass over both tables.
    */
  def statsAndNodes(t: NodeTypeInfo): (KGStats, Array[(Long, Int)]) = statsAnd(Some(t))

  private def statsAnd(t: Option[NodeTypeInfo]): (KGStats, Array[(Long, Int)]) = {
    val (Seq(e, n), picked) = KG.tally(Seq(triples -> "p", nodeTypes -> "ntype"), t)
    (KGStats(n.values.sum, e.values.sum, n.size.toLong, e.size.toLong), picked.sortBy(_._1))
  }

  /** The triples as ``(s, p, o)``, read from the table's rows with no
    * projection: an RDD job over them plans no query of its own.
    */
  def tripleRows: RDD[(Long, Int, Long)] = {
    val Seq(s, p, o) = Seq("s", "p", "o").map(triples.schema.fieldIndex)
    triples.queryExecution.toRdd.map(r => (r.getLong(s), r.getInt(p), r.getLong(o)))
  }

  /** The node-type table as ``(id, ntype)``, read as [[tripleRows]] is. */
  def nodeRows: RDD[(Long, Int)] = {
    val Seq(id, t) = Seq("id", "ntype").map(nodeTypes.schema.fieldIndex)
    nodeTypes.queryExecution.toRdd.map(r => (r.getLong(id), r.getInt(t)))
  }

  /** The undirected adjacency as ``(v, u)`` pairs (a message from ``v`` to
    * ``u``): each triple gives both directions and duplicate edges are kept,
    * hash-partitioned on ``v`` by ``part``. The one graph structure of the
    * walks, PPR, BFS, the entropy metric and the GNN's message passing; the
    * pair set is symmetric, so a pair reads as ``(u, v)`` as well.
    */
  def adjacency(part: Partitioner = new HashPartitioner(triples.sparkSession.sparkContext.defaultParallelism))
      : RDD[(Long, Long)] =
    tripleRows.flatMap { case (s, _, o) => Iterator((s, o), (o, s)) }.partitionBy(part)

  /** Node ids of one node type (by name) as a single-column DF ``id``. */
  def nodesOfType(typeName: String): DataFrame =
    nodeTypes.filter(schema.nodeType(typeName).contains(col("id"))).select(col("id"))
}

object KG {

  /** One table of [[KG.cached]]: coalesced to at most one partition per
    * core, materialised, its lineage truncated.
    */
  def resident(df: DataFrame): DataFrame =
    df.coalesce(df.sparkSession.sparkContext.defaultParallelism).localCheckpoint(true)

  /** The ``id`` column of ``df`` as an RDD. */
  def ids(df: DataFrame): RDD[Long] = df.select(col("id")).queryExecution.toRdd.map(_.getLong(0))

  /** Rows of each table per value of its int column: one map entry per
    * value (per type, for a type column), counted in each partition and
    * merged on the driver. One Spark job reads every table, with no shuffle
    * and no aggregation query: the only generated code reads the tables'
    * rows, as every full read of them does (DESIGN.md §5.5).
    */
  def countsBy(tables: (DataFrame, String)*): Seq[Map[Int, Long]] = tally(tables, None)._1

  /** [[countsBy]] of ``tables`` and, from the same job, the ``(id, c)`` rows
    * of the last table (``c`` its counted column) whose long column ``id``
    * lies in ``pick``'s range, in no particular order.
    */
  private def tally(tables: Seq[(DataFrame, String)], pick: Option[NodeTypeInfo])
      : (Seq[Map[Int, Long]], Array[(Long, Int)]) = {
    val perPartition = tables.zipWithIndex.map { case ((df, c), t) =>
      val i = df.schema.fieldIndex(c)
      val keep = pick.filter(_ => t == tables.size - 1).map(r => (r, df.schema.fieldIndex("id")))
      df.queryExecution.toRdd.mapPartitions { rows =>
        val m = mutable.HashMap.empty[Int, Long]
        val picked = mutable.ArrayBuffer.empty[(Long, Int)]
        rows.foreach { r =>
          val k = r.getInt(i)
          m(k) = m.getOrElse(k, 0L) + 1
          for ((range, id) <- keep if range.contains(r.getLong(id))) picked += ((r.getLong(id), k))
        }
        Iterator((t, m.toMap, picked.toArray))
      }
    }
    val counted = tables.head._1.sparkSession.sparkContext.union(perPartition).collect()
    val counts = tables.indices.map(t => counted.iterator.filter(_._1 == t).map(_._2).foldLeft(Map.empty[Int, Long]) { (acc, m) =>
      m.foldLeft(acc) { case (a, (k, n)) => a.updated(k, a.getOrElse(k, 0L) + n) }
    })
    (counts, counted.flatMap(_._3))
  }

  /** The hash draw's integer: one of a million buckets of a salt and one
    * long, in plain Scala (on the driver or in an RDD closure). It is
    * Spark's ``pmod(hash(a, salt), 1000000)``: Murmur3 x86_32 with seed 42
    * folded over the values in order, the salt (an int) last. Every
    * generator, sampler and split draws through it, so a draw does not
    * depend on partitioning and is reproducible across sessions.
    */
  def bucket(salt: Int, a: Long): Int = finish(salt, Murmur3_x86_32.hashLong(a, HashSeed))

  /** [[bucket]] of a salt and two longs, in that order. */
  def bucket(salt: Int, a: Long, b: Long): Int =
    finish(salt, Murmur3_x86_32.hashLong(b, Murmur3_x86_32.hashLong(a, HashSeed)))

  private def finish(salt: Int, h: Int): Int = Math.floorMod(Murmur3_x86_32.hashInt(salt, h), HashBuckets)

  private val HashSeed = 42

  /** The uniform(0, 1) draw of a [[bucket]]: the centre of the bucket's
    * interval, ``(bucket + 0.5) / 1e6``, ordered as the buckets are.
    */
  def uniform(bucket: Int): Double = (bucket.toDouble + 0.5) / HashBuckets.toDouble

  private val HashBuckets = 1000000
}
