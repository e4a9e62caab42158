package repro.rdf

import java.util.concurrent.{ConcurrentLinkedQueue, Executors}

import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** SPARQL-endpoint simulation implementing Algorithm 3's execution shape:
  * count the result, split it into LIMIT/OFFSET batches of ``bs`` rows, and
  * fetch batches with ``parallelism`` request-handler workers that append
  * rows to a driver-side buffer (the paper's Pandas DataFrame). One worker
  * pool serves all subqueries of an extraction, so no subquery waits for
  * another's pages.
  *
  * Like an RDF engine serving pages from a result it has already sorted,
  * each subquery's distinct result is sorted by all projected variables
  * and held once; batch ``i`` is rows ``[i·bs, (i+1)·bs)`` of that order,
  * cut from the partitions that hold them by one Spark job, with no
  * re-planned query and no per-page sort. The query itself scans the
  * [[TripleStore]]'s triple table; there is no index behind it (ROADMAP
  * item 2).
  */
final class Endpoint(val store: TripleStore, parallelism: Int = 8) {
  private val executor = new BGPExecutor(store)

  /** Execute a query directly (no pagination). */
  def select(q: Query): DataFrame = executor.execute(q)

  /** Result cardinality under set semantics (``getGraphSize`` in Alg. 3). */
  def count(q: Query): Long =
    executor.execute(q.copy(limit = None, offset = None)).distinct().count()

  /** Paginated parallel execution per Algorithm 3 of one query. */
  def paginated(q: Query, bs: Long): (DataFrame, Int) = paginated(Seq(q), bs)

  /** Algorithm 3 over all subqueries of one extraction on one worker pool:
    * sort and count every subquery's distinct result, then fetch every page
    * of every subquery. Returns the union of the subqueries' results (each
    * under set semantics) as a DataFrame of LongType columns named by the
    * projected vars, plus the total number of batches executed.
    */
  def paginated(qs: Seq[Query], bs: Long): (DataFrame, Int) = {
    require(qs.nonEmpty, "no subqueries to paginate")
    require(bs > 0, s"batch size must be positive, got $bs")
    val varsOut = qs.head.projected
    require(qs.forall(_.projected == varsOut), "subqueries must project the same variables")
    val spark = store.kg.triples.sparkSession
    val sc = spark.sparkContext
    val outSchema = StructType(varsOut.map(v => StructField(v, LongType, nullable = true)))

    val held = new ConcurrentLinkedQueue[RDD[Row]]()
    val pool = Executors.newFixedThreadPool(math.max(1, parallelism))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    def onPool[T](jobs: Seq[() => T]): Seq[T] =
      Await.result(Future.sequence(jobs.map(j => Future(j()))), Duration.Inf)
    try {
      // Set semantics before pagination: distinct rows give the total order a
      // strict key, so pages neither drop nor duplicate rows. The sorted
      // result is stored and counted per partition by one job.
      val sorted = onPool(qs.map(q => () => {
        val rows = executor.execute(q.copy(limit = None, offset = None)).distinct()
          .orderBy(varsOut.map(col): _*).rdd.persist()
        held.add(rows)
        (rows, sc.runJob(rows, Endpoint.size _).toSeq)
      }))
      val pages = for {
        (rows, sizes) <- sorted
        page <- Endpoint.pagePlan(sizes, bs)
      } yield () => if (page.isEmpty) Array.empty[Row]
        else sc.runJob(rows, Endpoint.cut(page), page.map(_.part)).flatten
      val buffer = onPool(pages).flatten
      // pages are disjoint windows over distinct results: no dedup needed
      val df = spark.createDataFrame(sc.parallelize(buffer, math.max(1, parallelism)), outSchema)
      (df, pages.size)
    } finally {
      pool.shutdown()
      held.asScala.foreach(_.unpersist(blocking = false))
    }
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

  private def size(it: Iterator[Row]): Long = {
    var n = 0L
    while (it.hasNext) { it.next(); n += 1 }
    n
  }

  /** The task side of one page: each partition returns its slice. */
  private def cut(page: Seq[Slice]): (TaskContext, Iterator[Row]) => Array[Row] = {
    val byPart = page.map(s => s.part -> s).toMap
    (ctx, it) => {
      val s = byPart(ctx.partitionId())
      val out = ArrayBuffer.empty[Row]
      var i = 0L
      while (i < s.until && it.hasNext) {
        val r = it.next()
        if (i >= s.from) out += r
        i += 1
      }
      out.toArray
    }
  }
}
