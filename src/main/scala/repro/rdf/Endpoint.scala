package repro.rdf

import org.apache.spark.{NarrowDependency, Partition, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** SPARQL-endpoint simulation implementing Algorithm 3's execution shape:
  * count the result, split it into LIMIT/OFFSET batches of ``bs`` rows, and
  * fetch the batches with ``parallelism`` request handlers.
  *
  * Like an RDF engine serving pages from a result it has already sorted,
  * the subqueries of one extraction are sorted once, together, by
  * (subquery, projected variables) in one range shuffle; equal rows are
  * then adjacent, so each partition drops repeats as it is read, and the
  * sorted set is held once. Batch ``i`` of a subquery is rows ``[i·bs,
  * (i+1)·bs)`` of its order. One Spark job fetches every page of every
  * subquery: its task ``k`` is request handler ``k``, which reads the
  * slices of a run of consecutive pages and writes them to a resident
  * table. No row passes through the driver. The query itself scans the
  * [[TripleStore]]'s triple table; there is no index behind it (ROADMAP
  * item 3).
  */
final class Endpoint(val store: TripleStore, parallelism: Int = 8) {
  private val executor = new BGPExecutor(store)

  /** Paginated parallel execution per Algorithm 3 of one query. */
  def paginated(q: Query, bs: Long): (DataFrame, Int) = paginated(Seq(q), bs)

  /** Algorithm 3 over all subqueries of one extraction: sort and count
    * every subquery's distinct result, then fetch every page of every
    * subquery in one job. Returns the union of the subqueries' results
    * (each under set semantics, in page order) as a resident table of
    * LongType columns named by the projected vars, plus the total number of
    * batches executed. The caller owns the table and frees it with
    * [[repro.release]].
    */
  def paginated(qs: Seq[Query], bs: Long): (DataFrame, Int) = {
    require(qs.nonEmpty, "no subqueries to paginate")
    require(bs > 0, s"batch size must be positive, got $bs")
    val varsOut = qs.head.projected
    require(qs.forall(_.projected == varsOut), "subqueries must project the same variables")
    val spark = store.kg.triples.sparkSession
    val outSchema = StructType(varsOut.map(v => StructField(v, LongType, nullable = true)))

    // column 0 tags each row with its subquery, so one range shuffle sorts
    // every subquery and keeps each one's rows contiguous
    val sortKey = "subquery" +: varsOut
    val sorted = qs.zipWithIndex.map { case (q, i) =>
      executor.execute(q).select((lit(i) as "subquery") +: varsOut.map(col): _*)
    }.reduce(_ union _).orderBy(sortKey.map(col): _*).queryExecution.toRdd
      .mapPartitions(Endpoint.dropRepeats).persist()
    try {
      val sizes = spark.sparkContext.runJob(sorted, Endpoint.sizes(qs.size) _)
      val pages = qs.indices.flatMap { i =>
        val before = sizes.map(_.take(i).sum)
        Endpoint.pagePlan(sizes.map(_(i)).toSeq, bs)
          .map(_.map(s => s.copy(from = before(s.part) + s.from, until = before(s.part) + s.until)))
      }
      val rows = new Endpoint.PageRDD(sorted, Endpoint.runs(sorted, pages, math.max(1, parallelism)))
      (spark.createDataFrame(rows, outSchema).localCheckpoint(true), pages.size)
    } finally sorted.unpersist(blocking = false)
  }
}

object Endpoint {

  /** Rows ``[from, until)`` of partition ``part``: one page's share of it. */
  final case class Slice(part: Int, from: Long, until: Long)

  /** Algorithm 3's page plan over a sorted result held in partitions of
    * ``sizes`` rows: page ``i`` is global rows ``[i·bs, min((i+1)·bs,
    * total))``, as the slices of the partitions that hold them, in order.
    * An empty result still has one (empty) page.
    */
  def pagePlan(sizes: Seq[Long], bs: Long): Seq[Seq[Slice]] = {
    require(bs > 0, s"batch size must be positive, got $bs")
    val total = sizes.sum
    val starts = sizes.scanLeft(0L)(_ + _)
    val n = if (total == 0) 1L else (total - 1) / bs + 1
    (0L until n).map { i =>
      val a = i * bs
      val b = a + math.min(bs, total - a)
      sizes.indices.flatMap { p =>
        val (from, until) = (math.max(a, starts(p)), math.min(b, starts(p + 1)))
        if (from < until) Some(Slice(p, from - starts(p), until - starts(p))) else None
      }
    }
  }

  /** A sorted partition without its repeats, which sorting made adjacent. */
  private def dropRepeats(rows: Iterator[InternalRow]): Iterator[InternalRow] = {
    var last: InternalRow = null
    rows.filter(r => last == null || r != last).map { r => last = r.copy(); last }
  }

  /** Rows per subquery (the tag in column 0) of one partition. */
  private def sizes(n: Int)(rows: Iterator[InternalRow]): Array[Long] = {
    val out = new Array[Long](n)
    rows.foreach(r => out(r.getInt(0)) += 1)
    out
  }

  /** Request handler ``index``'s run of consecutive pages, as slices of the
    * sorted partitions; ``parents`` are the partitions the slices read.
    */
  private final class Run(val index: Int, val slices: Seq[Slice], val parents: Map[Int, Partition])
    extends Partition

  /** ``pages`` split into at most ``handlers`` runs of consecutive pages; a
    * run's contiguous slices of one partition merge, so a task reads each
    * partition in one pass.
    */
  private def runs(sorted: RDD[InternalRow], pages: Seq[Seq[Slice]], handlers: Int): Array[Run] = {
    val n = math.min(handlers, pages.size)
    Array.tabulate(n) { k =>
      val slices = pages.slice(k * pages.size / n, (k + 1) * pages.size / n).flatten
        .foldLeft(List.empty[Slice]) {
          case (last :: done, s) if last.part == s.part && last.until == s.from => last.copy(until = s.until) :: done
          case (done, s) => s :: done
        }.reverse
      new Run(k, slices, slices.map(s => s.part -> sorted.partitions(s.part)).toMap)
    }
  }

  /** The page job's input: partition ``k`` is run ``k``'s rows, without
    * their tag.
    */
  private final class PageRDD(sorted: RDD[InternalRow], runs: Array[Run])
      extends RDD[Row](sorted.context, Seq(new NarrowDependency(sorted) {
        def getParents(k: Int): Seq[Int] = runs(k).parents.keys.toSeq.sorted
      })) {

    override protected def getPartitions: Array[Partition] = runs.toArray

    override def compute(split: Partition, ctx: TaskContext): Iterator[Row] = {
      val run = split.asInstanceOf[Run]
      val parent = firstParent[InternalRow]
      run.slices.iterator.flatMap { s =>
        val it = parent.iterator(run.parents(s.part), ctx)
        var i = 0L
        while (i < s.from && it.hasNext) { it.next(); i += 1 }
        it.takeWhile { _ => i += 1; i <= s.until }
          .map(r => Row.fromSeq((1 until r.numFields).map(c => if (r.isNullAt(c)) null else r.getLong(c))))
      }
    }
  }
}
