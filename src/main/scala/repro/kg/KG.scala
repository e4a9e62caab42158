package repro.kg

import scala.collection.mutable

import org.apache.spark.{HashPartitioner, Partitioner}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame}
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
  def stats: KGStats = {
    val Seq(e, n) = KG.countsBy(triples -> "p", nodeTypes -> "ntype")
    KGStats(n.values.sum, e.values.sum, n.size.toLong, e.size.toLong)
  }

  /** The undirected adjacency as ``(v, u)`` pairs (a message from ``v`` to
    * ``u``): each triple gives both directions and duplicate edges are kept,
    * hash-partitioned on ``v`` by ``part``. The one graph structure of the
    * walks, PPR, BFS, the entropy metric and the GNN's message passing; the
    * pair set is symmetric, so a pair reads as ``(u, v)`` as well.
    */
  def adjacency(part: Partitioner = new HashPartitioner(triples.sparkSession.sparkContext.defaultParallelism))
      : RDD[(Long, Long)] =
    triples.select(col("s"), col("o")).queryExecution.toRdd
      .flatMap { r => val (s, o) = (r.getLong(0), r.getLong(1)); Iterator((s, o), (o, s)) }
      .partitionBy(part)

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
  def countsBy(tables: (DataFrame, String)*): Seq[Map[Int, Long]] = {
    val perPartition = tables.zipWithIndex.map { case ((df, c), t) =>
      val i = df.schema.fieldIndex(c)
      df.queryExecution.toRdd.mapPartitions { rows =>
        val m = mutable.HashMap.empty[Int, Long]
        rows.foreach { r => val k = r.getInt(i); m(k) = m.getOrElse(k, 0L) + 1 }
        Iterator(t -> m.toMap)
      }
    }
    val counted = tables.head._1.sparkSession.sparkContext.union(perPartition).collect()
    tables.indices.map(t => counted.iterator.filter(_._1 == t).map(_._2).foldLeft(Map.empty[Int, Long]) { (acc, m) =>
      m.foldLeft(acc) { case (a, (k, n)) => a.updated(k, a.getOrElse(k, 0L) + n) }
    })
  }

  /** Deterministic uniform(0,1) pseudo-random from arbitrary columns —
    * unlike ``rand()`` it does not depend on partitioning, so generators
    * and samplers are reproducible across sessions and parallelism levels.
    */
  def hashRand(salt: Int, cols: Column*): Column = hashRand(lit(salt), cols: _*)

  /** [[hashRand]] with the salt read from an ``int`` column: the hash of an
    * int column equals the hash of the same int literal, and generated code
    * that reads the salt as data does not change with its value.
    */
  def hashRand(salt: Column, cols: Column*): Column =
    centre[Column](hashBucket(salt, cols: _*).cast("double"), _ + _, _ / _)

  /** The integer behind [[hashRand]]: one of a million buckets, ordered as
    * the uniform draw is.
    */
  def hashBucket(salt: Column, cols: Column*): Column = pmod(hash((cols :+ salt): _*), lit(HashBuckets))

  /** [[hashBucket]] of a salt and one long column, computed in plain Scala
    * (on the driver or in an RDD closure): Spark's ``hash`` is Murmur3 x86_32
    * with seed 42 folded over the columns in order, the salt (an int) last,
    * so this equals the Column's bucket bit for bit.
    */
  def bucket(salt: Int, a: Long): Int = finish(salt, Murmur3_x86_32.hashLong(a, HashSeed))

  /** [[bucket]] of a salt and two long columns, in that order. */
  def bucket(salt: Int, a: Long, b: Long): Int =
    finish(salt, Murmur3_x86_32.hashLong(b, Murmur3_x86_32.hashLong(a, HashSeed)))

  private def finish(salt: Int, h: Int): Int = Math.floorMod(Murmur3_x86_32.hashInt(salt, h), HashBuckets)

  private val HashSeed = 42

  /** [[hashRand]] of a collected [[hashBucket]] value, on the driver: the
    * same IEEE operations Spark runs, so a driver-side comparison decides
    * exactly as the Column one.
    */
  def uniform(bucket: Int): Double = centre[Double](bucket.toDouble, _ + _, _ / _)

  /** Bucket → uniform(0,1), the centre of the bucket's interval: the one
    * formula behind [[hashRand]] and [[uniform]].
    */
  private def centre[A](bucket: A, plus: (A, Double) => A, div: (A, Double) => A): A =
    div(plus(bucket, 0.5), HashBuckets.toDouble)

  private val HashBuckets = 1000000
}
