package repro

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or else half the machine's memory clamped to 2–8 GiB.
  * Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** ``body``'s result and the number of Spark jobs it ran. Build what it
    * reads but does not measure (a shared KG, say) before the call.
    */
  def countJobs[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val group = s"counted-${SparkSpec.groups.incrementAndGet()}"
    sc.setJobGroup(group, "counted block")
    val result = try body finally sc.clearJobGroup()
    // the status tracker hears of jobs in order: once it has seen a later
    // job, it has seen every job of the block
    sc.setJobGroup(s"$group-after", "marker")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    eventually(timeout(30.seconds))(assert(sc.statusTracker.getJobIdsForGroup(s"$group-after").nonEmpty))
    (result, sc.statusTracker.getJobIdsForGroup(group).length)
  }
}

object SparkSpec {
  private val groups = new AtomicInteger()

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
