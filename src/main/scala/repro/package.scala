import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LogicalRDD

package object repro {

  /** Run ``body``; return its result and its wall-clock seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Free what holds ``df``'s rows: its cache-manager entry
    * (``Dataset.cache``) and, for a table made by ``localCheckpoint``, the
    * RDD under its plan, whose blocks ``unpersist`` never sees. A freed
    * checkpoint fails loudly if it is read again.
    */
  def release(df: DataFrame): Unit = {
    df.unpersist()
    df.queryExecution.logical match {
      case r: LogicalRDD => r.rdd.unpersist(blocking = false)
      case _             =>
    }
  }
}
