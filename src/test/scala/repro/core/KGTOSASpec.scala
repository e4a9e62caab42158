package repro.core

import org.apache.spark.sql.CachedTables
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestKGs}
import repro.rdf.{Endpoint, TripleStore}
import repro.sampling.RandomWalk
import repro.synth.Tasks

class KGTOSASpec extends SparkSpec {

  private lazy val kg = TestKGs.dblp
  private lazy val store = new TripleStore(kg).warm()
  private lazy val endpoint = new Endpoint(store, parallelism = 4)
  private val task = Tasks.PV_DBLP

  private def targetRange = kg.schema.nodeType(task.targetType)

  test("d1h1 KG' triples are exactly the targets' outgoing triples (oracle)") {
    val ex = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 1), bs = 100000)
    val t = targetRange
    Oracle.assertEquivalent(
      ex.subgraph.triples,
      s"SELECT DISTINCT s, p, o FROM triples " +
        s"WHERE CAST(s AS BIGINT) >= ${t.offset} AND CAST(s AS BIGINT) < ${t.offset + t.count}",
      "triples" -> kg.triples)
    ex.subgraph.uncache()
  }

  test("d2h1 KG' adds the targets' incoming triples (oracle)") {
    val ex = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(2, 1), bs = 100000)
    val t = targetRange
    val lo = t.offset
    val hi = t.offset + t.count
    Oracle.assertEquivalent(
      ex.subgraph.triples,
      s"SELECT DISTINCT s, p, o FROM triples " +
        s"WHERE (CAST(s AS BIGINT) >= $lo AND CAST(s AS BIGINT) < $hi) " +
        s"   OR (CAST(o AS BIGINT) >= $lo AND CAST(o AS BIGINT) < $hi)",
      "triples" -> kg.triples)
    ex.subgraph.uncache()
  }

  test("every target vertex survives into KG' even without matched edges") {
    val ex = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 1), bs = 100000)
    val t = targetRange
    val targetsIn = ex.subgraph.nodeTypes.filter(col("ntype") === t.id).count()
    assert(targetsIn == t.count)
    ex.subgraph.uncache()
  }

  test("d1h2 KG' is a superset of d1h1 KG'") {
    val h1 = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 1), bs = 100000)
    val h2 = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 2), bs = 100000)
    assert(h1.subgraph.triples.exceptAll(h2.subgraph.triples).count() == 0)
    assert(h2.subgraph.triples.count() > h1.subgraph.triples.count())
    h1.subgraph.uncache(); h2.subgraph.uncache()
  }

  test("d1h2 includes second-hop edges of hop-1 neighbours") {
    val ex = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 2), bs = 100000)
    // Author (hop-1 object of Publication) out-edges must appear, e.g. authorAff
    val pid = kg.schema.edgeType("authorAff").id
    assert(ex.subgraph.triples.filter(col("p") === pid).count() > 0)
    ex.subgraph.uncache()
  }

  test("targetSample restricts d1h1 to the sampled targets' edges") {
    val sample = RandomWalk.sampleIds(Tasks.targets(kg, task), 50, seed = 3).cache()
    val ex = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 1), bs = 100000,
      targetSample = Some(sample))
    val strayS = ex.subgraph.triples.join(sample.withColumnRenamed("id", "s"), Seq("s"), "left_anti").count()
    assert(strayS == 0)
    // all 50 sampled targets present
    assert(ex.subgraph.nodeTypes.join(sample, "id").count() == 50)
    ex.subgraph.uncache(); sample.unpersist()
  }

  test("KG' node set equals triple endpoints plus targets") {
    val ex = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 1), bs = 100000)
    val endpoints = ex.subgraph.triples.select(col("s") as "id")
      .union(ex.subgraph.triples.select(col("o") as "id"))
      .union(Tasks.targets(kg, task))
      .distinct()
    assert(ex.subgraph.nodeTypes.count() == endpoints.count())
    ex.subgraph.uncache()
  }

  test("extraction reports the SPARQL text and batch count") {
    val ex = KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 1), bs = 5000)
    assert(ex.sparqlQueries.nonEmpty)
    assert(ex.sparqlQueries.head.startsWith("SELECT ?s ?p ?o WHERE"))
    assert(ex.batches >= 2) // DBLP-lite targets have > 5000 outgoing triples
    assert(ex.method == "KG-TOSA_d1h1")
    ex.subgraph.uncache()
  }

  test("BRW/IBS extraction wrappers return materialised subgraphs") {
    val brw = KGTOSA.brwExtract(kg, task, bs = 30, h = 2, seed = 5)
    assert(brw.subgraph.nodeTypes.count() >= 30)
    assert(brw.method == "BRW")
    val ibs = KGTOSA.ibsExtract(kg, task, bs = 20, k = 6, alpha = 0.25, seed = 5)
    assert(ibs.subgraph.nodeTypes.count() >= 20)
    assert(ibs.method == "IBS")
    brw.subgraph.uncache(); ibs.subgraph.uncache()
  }

  test("LP extraction includes every target-predicate edge (bridge pattern)") {
    val lpTask = Tasks.AA_DBLP
    val ex = KGTOSA.sparqlExtractLP(endpoint, lpTask, GraphPattern(2, 1), bs = 100000)
    val pid = kg.schema.edgeType(lpTask.predicate).id
    val inKg = kg.triples.filter(col("p") === pid).count()
    val inSub = ex.subgraph.triples.filter(col("p") === pid).distinct().count()
    assert(inSub == kg.triples.filter(col("p") === pid).distinct().count())
    assert(inKg > 0)
    ex.subgraph.uncache()
  }

  test("every page of a d2h1 LP extraction is fetched by one Spark job") {
    kg.triples.count() // builds the shared KG outside the counted blocks
    def jobs(bs: Long): (Int, Int) = {
      val (ex, n) = countJobs(KGTOSA.sparqlExtractLP(endpoint, Tasks.AA_DBLP, GraphPattern(2, 1), bs))
      ex.subgraph.uncache()
      (ex.batches, n)
    }
    val (manyPages, manyJobs) = jobs(bs = 300)
    val (onePerQuery, fewJobs) = jobs(bs = 100000)
    assert(manyPages >= 10 && onePerQuery == 5, s"$manyPages and $onePerQuery pages")
    // more pages add no job: all of them are one job's tasks
    assert(manyJobs == fewJobs, s"$manyJobs jobs for $manyPages pages, $fewJobs for $onePerQuery")
  }

  test("SPARQL extraction leaves no persisted RDD or cached table behind") {
    val sc = spark.sparkContext
    Tasks.targets(kg, task).count() // builds the shared KG, which stays resident
    val (rdds, tables) = (sc.getPersistentRDDs.keySet.toSet, CachedTables.count(spark))
    KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 1), bs = 5000).subgraph.uncache()
    KGTOSA.sparqlExtractLP(endpoint, Tasks.AA_DBLP, GraphPattern(2, 1), bs = 300).subgraph.uncache()
    val left = sc.getPersistentRDDs.keySet.toSet -- rdds
    assert(left.isEmpty, left.map(sc.getPersistentRDDs(_).toDebugString).mkString("\n"))
    assert(CachedTables.count(spark) == tables)
  }

  test("targetSample with h = 2 is rejected") {
    val sample = RandomWalk.sampleIds(Tasks.targets(kg, task), 10, seed = 6)
    intercept[IllegalArgumentException](
      KGTOSA.sparqlExtract(endpoint, task, GraphPattern(1, 2), bs = 1000, targetSample = Some(sample)))
  }
}
