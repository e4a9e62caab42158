package repro.kg

import scala.collection.mutable
import scala.reflect.ClassTag

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD

/** The one join of the graph algorithms: rows keyed by a node (adjacency
  * pairs, triples, a frontier) against a node-keyed table (vectors, scores,
  * degrees, types, nids), both hash-partitioned by the same partitioner, as
  * [[KG.adjacency]] and every table keyed like it are.
  *
  * Partition ``i`` of the table goes into a hash map and partition ``i`` of
  * the rows streams past it (``zipPartitions``): no shuffle, and no
  * ``CoGroupedRDD``, which would put every row of both sides into a
  * size-tracked ``ExternalAppendOnlyMap``. Where a hop follows ([[hop]]),
  * each partition merges its messages per destination in a plain hash map
  * before the hop's one shuffle, and the reduce side merges them the same way.
  */
object NodeJoin {

  /** One partition of a node-keyed table. */
  type Table[W] = mutable.LongMap[W]

  /** ``f`` over each partition of ``rows`` and the same partition of
    * ``nodes`` as a [[Table]]. ``nodes`` holds at most one row per key.
    *
    * @param keyed whether ``f`` keeps each row's key, so the result keeps
    *              the partitioner
    */
  def probe[V, W, R: ClassTag](rows: RDD[(Long, V)], nodes: RDD[(Long, W)], keyed: Boolean = false)
                              (f: (Iterator[(Long, V)], Table[W]) => Iterator[R]): RDD[R] = {
    require(rows.partitioner.isDefined && rows.partitioner == nodes.partitioner,
      s"rows (${rows.partitioner}) and nodes (${nodes.partitioner}) must share a partitioner")
    rows.zipPartitions(nodes, preservesPartitioning = keyed)((rs, ns) => f(rs, table(ns)))
  }

  private def table[W](rows: Iterator[(Long, W)]): Table[W] = {
    val t = mutable.LongMap.empty[W]
    rows.foreach { case (k, w) =>
      val n = t.size
      t.update(k, w)
      require(t.size > n, s"node $k has two rows in a node-keyed table")
    }
    t
  }

  /** The inner join of ``rows`` with ``nodes``, as ``RDD.join``, partitioned
    * as ``rows``.
    */
  def join[V, W](rows: RDD[(Long, V)], nodes: RDD[(Long, W)]): RDD[(Long, (V, W))] =
    probe(rows, nodes, keyed = true)((rs, t) => rs.flatMap { case (k, v) => t.get(k).map(w => (k, (v, w))) })

  /** One hop: each pair ``(v, u)`` of ``pairs`` whose ``v`` has the value
    * ``w`` in ``nodes`` sends ``w`` to ``u``; per ``u`` the messages fold into
    * one value, as ``combineByKey`` does (``create`` the first, ``add`` the
    * rest, ``merge`` partial values), partitioned as ``pairs``. One shuffle.
    */
  def hop[W, A: ClassTag](pairs: RDD[(Long, Long)], nodes: RDD[(Long, W)])
                         (create: W => A, add: (A, W) => A, merge: (A, A) => A): RDD[(Long, A)] = {
    val partial = probe(pairs, nodes) { (ps, t) =>
      val acc = mutable.LongMap.empty[A]
      ps.foreach { case (v, u) =>
        val w = t.getOrNull(v)
        if (w != null) {
          val a = acc.getOrNull(u)
          acc.update(u, if (a == null) create(w) else add(a, w))
        }
      }
      acc.iterator
    }
    shuffled(partial, pairs.partitioner.get, merge)
  }

  /** ``rows`` with one value per key, ``merge``d, partitioned by ``part``:
    * merged in each partition, shuffled once, merged again.
    */
  def reduce[A: ClassTag](rows: RDD[(Long, A)], part: Partitioner)(merge: (A, A) => A): RDD[(Long, A)] =
    shuffled(rows.mapPartitions(merged(_)(merge)), part, merge)

  private def shuffled[A: ClassTag](rows: RDD[(Long, A)], part: Partitioner, merge: (A, A) => A): RDD[(Long, A)] =
    rows.partitionBy(part).mapPartitions(merged(_)(merge), preservesPartitioning = true)

  /** ``rows`` with one value per key, ``merge``d in a hash map. */
  def merged[A](rows: Iterator[(Long, A)])(merge: (A, A) => A): Iterator[(Long, A)] = {
    val acc = mutable.LongMap.empty[A]
    rows.foreach { case (k, a) =>
      val b = acc.getOrNull(k)
      acc.update(k, if (b == null) a else merge(b, a))
    }
    acc.iterator
  }
}
