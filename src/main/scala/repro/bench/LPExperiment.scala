package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core.{GraphPattern, KGTOSA}
import repro.gnn.{LinkPred, LPResult, MemoryModel}
import repro.rdf.{Endpoint, TripleStore}
import repro.synth.Tasks

/** Supplementary link-prediction experiment (the paper's Figure 7 content;
  * figures are out of scope, but the LP tasks of Table II are exercised
  * here): MorsE and LHGNN trained on FG vs KG-TOSA_d2h1's KG' for the three
  * LP tasks, reporting Hits@10 and MRR beside the number of candidates they
  * rank against (ten or fewer saturate Hits@10), time and model memory.
  */
object LPExperiment {

  final case class Row(task: String, method: String, graph: String, r: LPResult,
                       extractSec: Double)

  /** Run FG-vs-KG' for each LP task with the given methods. */
  def run(spark: SparkSession, scale: Double,
          methods: Seq[String] = Seq("MorsE", "LHGNN"), pagBs: Long = 20000): Seq[Row] = {
    val out = Seq.newBuilder[Row]
    for (task <- Tasks.lpTasks) {
      val kg = Harness.buildKG(spark, task.kgName, scale)
      val store = new TripleStore(kg).warm()
      val endpoint = new Endpoint(store, parallelism = 8)
      val ex = KGTOSA.sparqlExtractLP(endpoint, task, GraphPattern(2, 1), pagBs)
      for (m <- methods) {
        out += Row(s"${task.name}/${task.kgName}", m, "FG", LinkPred.train(kg, task, m), 0.0)
        out += Row(s"${task.name}/${task.kgName}", m, "KG'",
          LinkPred.train(ex.subgraph, task, m), ex.extractSeconds)
      }
      ex.subgraph.uncache(); store.close(); kg.uncache()
    }
    out.result()
  }

  def render(rows: Seq[Row]): String = {
    val header = Seq("Task", "Method", "Graph", "Hits@10", "MRR", "#cand", "Train(s)",
      "Extract(s)", "Params(M)", "Mem(GB)", "#train", "#test")
    val body = rows.map { r =>
      Seq(r.task, r.method, r.graph, Harness.f2(r.r.hits10), Harness.f2(r.r.mrr), r.r.candidates.toString,
        Harness.f1(r.r.trainSeconds), Harness.f1(r.extractSec), Harness.f1(r.r.params / 1e6),
        Harness.f2(MemoryModel.gb(r.r.memoryBytes)),
        r.r.trainTriples.toString, r.r.testTriples.toString)
    }
    Harness.table("LP experiment (FG vs KG-TOSA_d2h1)", header, body)
  }
}
