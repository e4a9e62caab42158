package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec
import org.apache.spark.sql.functions._

/** Evaluation of a DataFrame in full. ``df.count()`` would let Catalyst
  * prune every column nobody reads — a standalone aggregation "measured"
  * that way skips the aggregation — so every column goes into a checksum.
  */
final case class Forced(rows: Long, checksum: Long, rowsScanned: Long)

object Force {

  /** Evaluate every column of ``df``: its row count, an order-independent
    * checksum of its rows, and the rows its leaf scans produced.
    */
  def apply(df: DataFrame): Forced = {
    val h = if (df.columns.isEmpty) lit(0L) else pmod(xxhash64(df.columns.toSeq.map(c => df.col(s"`$c`")): _*), lit(Int.MaxValue.toLong))
    val agg = df.select(count(lit(1)) as "n", coalesce(sum(h), lit(0L)) as "h")
    val r = agg.collect().head // collect runs agg's own QueryExecution, whose plan is read below
    Forced(r.getLong(0), r.getLong(1), leafRows(agg.queryExecution.executedPlan))
  }

  /** Sum of ``numOutputRows`` over the leaf scans of an executed plan. AQE
    * hides the plan that ran behind ``AdaptiveSparkPlanExec`` and query
    * stages, so both are unwrapped; a reused exchange read nothing new.
    */
  def leafRows(p: SparkPlan): Long = p match {
    case a: AdaptiveSparkPlanExec => leafRows(a.executedPlan)
    case q: QueryStageExec        => leafRows(q.plan)
    case _: ReusedExchangeExec    => 0L
    case leaf if leaf.children.isEmpty => leaf.metrics.get("numOutputRows").map(_.value).getOrElse(0L)
    case other                    => other.children.map(leafRows).sum
  }
}
