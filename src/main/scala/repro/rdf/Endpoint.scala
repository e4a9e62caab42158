package repro.rdf

import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** SPARQL-endpoint simulation implementing Algorithm 3's execution shape:
  * count the result, split it into LIMIT/OFFSET batches of ``bs`` rows, and
  * fetch batches with ``parallelism`` request-handler workers that append
  * rows to a driver-side buffer (the paper's Pandas DataFrame).
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

  /** Paginated parallel execution per Algorithm 3. Returns the result under
    * set semantics as a DataFrame of LongType columns named by the projected
    * vars, plus the number of batches executed.
    */
  def paginated(q: Query, bs: Long): (DataFrame, Int) = {
    val spark = store.kg.triples.sparkSession
    val varsOut = q.projected
    val outSchema = StructType(varsOut.map(v => StructField(v, LongType, nullable = true)))

    // Set semantics before pagination: distinct rows give the total order a
    // strict key, so OFFSET windows neither drop nor duplicate rows.
    val base = executor.execute(q.copy(limit = None, offset = None)).distinct().cache()
    try {
      val total = base.count()
      val nBatches = math.max(1, math.ceil(total.toDouble / bs).toInt)
      val pool = Executors.newFixedThreadPool(math.max(1, parallelism))
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
      try {
        val sortCols = varsOut.map(org.apache.spark.sql.functions.col)
        val fetched: Seq[Future[Array[Row]]] = (0 until nBatches).map { i =>
          Future {
            // One LIMIT/OFFSET page over the cached set-semantics result;
            // distinct rows make the total order strict, so pages partition
            // the result exactly.
            base.orderBy(sortCols: _*).offset((i * bs).toInt).limit(bs.toInt).collect()
          }
        }
        val rows = Await.result(Future.sequence(fetched), Duration.Inf).flatten
        // pages are disjoint windows over a distinct base: no dedup needed
        val df = spark.createDataFrame(
          spark.sparkContext.parallelize(rows.toSeq, math.max(1, parallelism)), outSchema)
        (df, nBatches)
      } finally pool.shutdown()
    } finally base.unpersist()
  }
}
