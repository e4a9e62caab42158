package repro.rdf

import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** SPARQL-endpoint simulation implementing Algorithm 3's execution shape:
  * count the result, split it into LIMIT/OFFSET batches of ``bs`` rows, and
  * fetch batches with ``parallelism`` request-handler workers that append
  * rows to a driver-side buffer (the paper's Pandas DataFrame). One worker
  * pool serves all subqueries of an extraction, so no subquery waits for
  * another's pages.
  *
  * Each batch re-executes the (cached) query with a different OFFSET —
  * deliberately so: the paper notes RDF engines execute the query once per
  * page, which is why KG-TOSA paginates each *subquery* independently. The
  * query itself scans the [[TripleStore]]'s triple table; there is no index
  * behind a page (ROADMAP item 2).
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
    * count every subquery's distinct result, then fetch every page of every
    * subquery. Returns the union of the subqueries' results (each under set
    * semantics) as a DataFrame of LongType columns named by the projected
    * vars, plus the total number of batches executed.
    */
  def paginated(qs: Seq[Query], bs: Long): (DataFrame, Int) = {
    require(qs.nonEmpty, "no subqueries to paginate")
    require(bs > 0, s"batch size must be positive, got $bs")
    val varsOut = qs.head.projected
    require(qs.forall(_.projected == varsOut), "subqueries must project the same variables")
    val spark = store.kg.triples.sparkSession
    val outSchema = StructType(varsOut.map(v => StructField(v, LongType, nullable = true)))
    val sortCols = varsOut.map(org.apache.spark.sql.functions.col)

    // Set semantics before pagination: distinct rows give the total order a
    // strict key, so OFFSET windows neither drop nor duplicate rows.
    val bases = qs.map(q => executor.execute(q.copy(limit = None, offset = None)).distinct().cache())
    val pool = Executors.newFixedThreadPool(math.max(1, parallelism))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    def onPool[T](jobs: Seq[() => T]): Seq[T] =
      Await.result(Future.sequence(jobs.map(j => Future(j()))), Duration.Inf)
    try {
      val totals = onPool(bases.map(b => () => b.count()))
      // One LIMIT/OFFSET page over a cached set-semantics result; distinct
      // rows make the total order strict, so pages partition the result
      // exactly. Dataset.offset/limit take an Int: an overflow fails loudly.
      val pages = for {
        (base, total) <- bases.zip(totals)
        size = math.max(1L, math.min(bs, total))
        i <- 0L until math.max(1L, (total + size - 1) / size)
      } yield () => base.orderBy(sortCols: _*)
        .offset(Math.toIntExact(i * size)).limit(Math.toIntExact(size)).collect()
      val rows = onPool(pages).flatten
      // pages are disjoint windows over distinct bases: no dedup needed
      val df = spark.createDataFrame(
        spark.sparkContext.parallelize(rows, math.max(1, parallelism)), outSchema)
      (df, pages.size)
    } finally {
      pool.shutdown()
      bases.foreach(_.unpersist())
    }
  }
}
