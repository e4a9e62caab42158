package repro.gnn

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.functions._

import repro.kg.KG
import repro.synth.LPTask
import repro.timed

/** Outcome of one link-prediction training run. */
final case class LPResult(
    method: String,
    hits10: Double,
    trainSeconds: Double,
    params: Long,
    memoryBytes: Long,
    trainTriples: Long,
    testTriples: Long,
)

/** Missing-entity link prediction (Definition 2.3) with translational
  * embeddings:
  *
  *  - ``MorsE``  — TransE scoring (the paper uses the MorsE-TransE variant)
  *  - ``LHGNN``  — TransE with a per-relation diagonal projection of the
  *                 entity embeddings (a latent-heterogeneous stand-in:
  *                 more parameters, better fit, higher cost)
  *  - ``RGCN``   — TransE scoring over RGCN-sized accounting (full-batch
  *                 memory model), training identical to MorsE here
  *
  * Trained driver-side with margin ranking + negative sampling over the
  * (sub)graph's triples; Hits@10 is filtered to type-compatible candidates.
  */
object LinkPred {

  val methods: Seq[String] = Seq("MorsE", "LHGNN", "RGCN")

  def train(g: KG, task: LPTask, method: String = "MorsE",
            dim: Int = 16, epochs: Int = 12, lr: Double = 0.05,
            margin: Double = 1.0, seed: Int = 13): LPResult = {
    require(methods.contains(method), s"unknown LP method $method")
    val ((hits10, nNodes, nRels, nTrain, nTest), secs) = timed {

      val schema = g.schema
      val pT = schema.edgeType(task.predicate)
      val predEdges = g.triples.filter(col("p") === pT.id)
      val nPred = math.max(1L, predEdges.count())

      // Table II's test ratios (0.3–3.5%) leave single-digit eval sets at
      // 1/1000 scale — statistically useless for Hits@10. Widen the holdout
      // to ≥ ~60 edges (capped at 10%). An edge is held out by a hash of
      // (s, o) against a threshold set by ``evalFrac``, which depends on
      // ``nPred``: FG counts its duplicate triples and KG' (a set) does not,
      // so the two graphs can get different thresholds and different test
      // edges (ROADMAP item 5, "Triples as a set").
      val evalFrac = math.max(task.ratios._3, math.min(0.10, 60.0 / nPred))
      val q = KG.hashRand(9002, col("s"), col("o"))
      val testDf = predEdges.filter(q >= 1.0 - evalFrac).select(col("s"), col("o"))
      val trainDf = g.triples.filter(col("p") =!= pT.id)
        .union(predEdges.filter(q < 1.0 - evalFrac))

      // sorted, so the index order, the initial embeddings and the SGD order
      // depend on the triples, not on the order the rows were collected in
      val train = trainDf.collect().map(r => (r.getLong(0), r.getInt(1), r.getLong(2))).sorted
      val test = testDf.collect().map(r => (r.getLong(0), r.getLong(1))).sorted

      // driver-side index
      val nodeIdx = mutable.LinkedHashMap[Long, Int]()
      def idx(v: Long): Int = nodeIdx.getOrElseUpdate(v, nodeIdx.size)
      train.foreach { case (s, _, o) => idx(s); idx(o) }
      test.foreach { case (s, o) => idx(s); idx(o) }
      val dstRange = schema.nodeTypes(pT.dstType)
      val candidates = nodeIdx.keys.filter(dstRange.contains).map(nodeIdx).toArray
      val nNodes = nodeIdx.size
      val rels = train.map(_._2).distinct.sorted
      val relIdx = rels.zipWithIndex.toMap
      val nRels = math.max(1, rels.length)

      val rnd = new Random(seed)
      def table(n: Int): Array[Array[Double]] =
        Array.fill(n)(Array.fill(dim)((rnd.nextDouble() - 0.5) / math.sqrt(dim)))
      val e = table(nNodes)
      val r = table(nRels)
      val proj = if (method == "LHGNN") Array.fill(nRels)(Array.fill(dim)(1.0)) else null

      def score(s: Int, p: Int, o: Int): Double = {
        var d = 0.0
        var j = 0
        while (j < dim) {
          val ps = if (proj == null) e(s)(j) else e(s)(j) * proj(p)(j)
          val po = if (proj == null) e(o)(j) else e(o)(j) * proj(p)(j)
          d += math.abs(ps + r(p)(j) - po)
          j += 1
        }
        d
      }

      /** One margin-ranking subgradient step on (s,p,o) vs (s,p,o'). */
      def update(s: Int, p: Int, o: Int, oNeg: Int): Unit = {
        val pos = score(s, p, o)
        val neg = score(s, p, oNeg)
        if (pos + margin <= neg) return
        var j = 0
        while (j < dim) {
          val gs = if (proj == null) 1.0 else proj(p)(j)
          val dPos = math.signum(e(s)(j) * gs + r(p)(j) - e(o)(j) * gs)
          val dNeg = math.signum(e(s)(j) * gs + r(p)(j) - e(oNeg)(j) * gs)
          e(s)(j) -= lr * (dPos - dNeg) * gs
          r(p)(j) -= lr * (dPos - dNeg)
          e(o)(j) += lr * dPos * gs
          e(oNeg)(j) -= lr * dNeg * gs
          if (proj != null) {
            proj(p)(j) -= lr * (dPos * (e(s)(j) - e(o)(j)) - dNeg * (e(s)(j) - e(oNeg)(j)))
          }
          j += 1
        }
      }

      val trainIdx = train.map { case (s, p, o) => (idx(s), relIdx(p), idx(o)) }
      for (_ <- 0 until epochs) {
        trainIdx.foreach { case (s, p, o) =>
          // half the negatives are type-compatible (hard), half uniform
          val oNeg =
            if (candidates.nonEmpty && rnd.nextBoolean()) candidates(rnd.nextInt(candidates.length))
            else rnd.nextInt(nNodes)
          if (oNeg != o) update(s, p, o, oNeg)
        }
      }

      // Hits@10 over type-compatible candidates
      val pIdx = relIdx.getOrElse(pT.id, 0)
      var hits = 0
      test.foreach { case (sRaw, oRaw) =>
        val s = nodeIdx(sRaw)
        val o = nodeIdx(oRaw)
        val sTrue = score(s, pIdx, o)
        var better = 0
        var i = 0
        while (i < candidates.length) {
          if (candidates(i) != o && score(s, pIdx, candidates(i)) < sTrue) better += 1
          i += 1
        }
        if (better < 10) hits += 1
      }
      val hits10 = if (test.isEmpty || candidates.isEmpty) 0.0 else hits.toDouble / test.length

      (hits10, nNodes, nRels, train.length, test.length)
    }
    val bigF = MemoryModel.F
    val projParams = if (method == "LHGNN") nRels.toLong * bigF else 0L
    val params = nNodes.toLong * bigF + nRels.toLong * bigF + projParams
    val mem = 16L * nTrain + 24L * params +
      (if (method == "RGCN") 8L * nNodes * bigF * 3 else 0L)
    LPResult(method, hits10, secs, params, mem, nTrain.toLong, nTest.toLong)
  }
}
