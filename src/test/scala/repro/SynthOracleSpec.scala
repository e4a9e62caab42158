package repro

import org.apache.spark.sql.functions._

/** Sanity checks for the DuckDB oracle itself (every KG query-result suite
  * relies on it), over a test KG's triples.
  */
class SynthOracleSpec extends SparkSpec {

  private lazy val triples = TestKGs.yago3.triples

  test("oracle agrees with Spark on a simple aggregation over triples") {
    val got = triples.groupBy(col("p"))
      .agg(count(lit(1)) as "cnt")
      .select(col("p"), col("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT p, count(*) AS cnt FROM triples GROUP BY p",
      "triples" -> triples)
  }

  test("oracle catches a wrong result") {
    val wrong = triples.groupBy(col("p"))
      .agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        wrong,
        "SELECT p, count(*) AS cnt FROM triples GROUP BY p",
        "triples" -> triples)
    }
  }
}
