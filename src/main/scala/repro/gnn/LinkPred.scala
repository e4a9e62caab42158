package repro.gnn

import scala.collection.mutable
import scala.util.Random

import repro.kg.KG
import repro.synth.LPTask
import repro.timed

/** Outcome of one link-prediction training run. ``candidates`` is the
  * number of type-compatible objects each test edge is ranked against:
  * with ten or fewer, Hits@10 is 1 whatever the model. ``nonFiniteTests``
  * counts the test edges at which some score was not finite (a diverged
  * model).
  */
final case class LPResult(
    method: String,
    hits10: Double,
    mrr: Double,
    trainSeconds: Double,
    params: Long,
    memoryBytes: Long,
    trainTriples: Long,
    testTriples: Long,
    candidates: Int,
    nonFiniteTests: Int,
)

/** One graph as LP training reads it ([[LinkPred.split]]): the training
  * triples ``(s, p, o)`` and the held-out ``(s, o)`` edges of the task
  * predicate, both sorted, and the node index — ``nodes(i)`` is the node of
  * index ``i``, numbered in first-seen order over ``train`` then ``test``.
  */
final case class LPData(train: Array[(Long, Int, Long)], test: Array[(Long, Long)],
                        nodes: Array[Long], index: collection.Map[Long, Int])

/** Missing-entity link prediction (Definition 2.3) with translational
  * embeddings:
  *
  *  - ``MorsE``  — TransE scoring (the paper uses the MorsE-TransE variant)
  *  - ``LHGNN``  — TransE with a per-relation diagonal projection of the
  *                 entity embeddings (a latent-heterogeneous stand-in:
  *                 more parameters, better fit, higher cost), each entry
  *                 kept in [-1, 1]
  *
  * Trained driver-side with margin ranking + negative sampling over the
  * (sub)graph's triples, read by one Spark job per call; Hits@10 and
  * filtered MRR rank against type-compatible candidates.
  */
object LinkPred {

  val methods: Seq[String] = Seq("MorsE", "LHGNN")

  /** Bound on each entry of LHGNN's projection. A projection entry of at
    * most 1 in magnitude cannot scale an embedding up, so the embedding and
    * projection updates cannot feed each other without bound. Unbounded,
    * they drove the scores to NaN on DBLP-lite AA within 48 epochs at the
    * default step size.
    */
  private val ProjBound = 1.0

  /** Salt of the holdout draw, ``KG.bucket(HoldoutSalt, s, o)``. */
  private val HoldoutSalt = 9002

  /** Every triple of ``g`` with its holdout bucket,
    * ``(s, p, o, KG.bucket(HoldoutSalt, s, o))``: one Spark job over the
    * triples' rows, each partition shipped as primitive arrays.
    */
  def read(g: KG): Array[(Long, Int, Long, Int)] =
    g.tripleRows.mapPartitions { rows =>
      val (s, p, o) = (mutable.ArrayBuilder.make[Long], mutable.ArrayBuilder.make[Int], mutable.ArrayBuilder.make[Long])
      rows.foreach { t => s += t._1; p += t._2; o += t._3 }
      Iterator((s.result(), p.result(), o.result()))
    }.collect().flatMap { case (s, p, o) => s.indices.map(i => (s(i), p(i), o(i), KG.bucket(HoldoutSalt, s(i), o(i)))) }

  /** Share of the predicate's ``nPred`` edges held out for testing. Table
    * II's test ratios (0.3–3.5%) leave single-digit eval sets at 1/1000
    * scale — statistically useless for Hits@10 — so the holdout is widened
    * to ≥ ~60 edges (capped at 10%). FG counts its duplicate triples and KG'
    * (a set) does not, so the two graphs can get different fractions and
    * different test edges (ROADMAP item 5, "Triples as a set").
    */
  def evalFrac(testRatio: Double, nPred: Long): Double =
    math.max(testRatio, math.min(0.10, 60.0 / math.max(1L, nPred)))

  /** Split [[read]]'s rows into train and test, sort both and index their
    * nodes; pure and independent of the training seed. An edge of
    * predicate ``pred`` is held out when its hash draw, ``KG.uniform`` of
    * its bucket, is at least ``1 - evalFrac``.
    * Sorting makes the index order, the initial embeddings and the SGD
    * order depend on the triples, not on the order the rows were read in.
    */
  def split(rows: Array[(Long, Int, Long, Int)], pred: Int, testRatio: Double): LPData = {
    val cut = 1.0 - evalFrac(testRatio, rows.count(_._2 == pred).toLong)
    val (held, kept) = rows.partition { case (_, p, _, b) => p == pred && KG.uniform(b) >= cut }
    val train = kept.map { case (s, p, o, _) => (s, p, o) }.sorted
    val test = held.map { case (s, _, o, _) => (s, o) }.sorted
    val index = mutable.HashMap[Long, Int]()
    val nodes = mutable.ArrayBuffer[Long]()
    def add(v: Long): Unit = if (!index.contains(v)) { index(v) = nodes.length; nodes += v }
    train.foreach { case (s, _, o) => add(s); add(o) }
    test.foreach { case (s, o) => add(s); add(o) }
    LPData(train, test, nodes.toArray, index)
  }

  def train(g: KG, task: LPTask, method: String = "MorsE",
            dim: Int = 16, epochs: Int = 12, lr: Double = 0.05,
            margin: Double = 1.0, seed: Int = 13): LPResult = {
    require(methods.contains(method), s"unknown LP method $method")
    val ((hits10, mrr, nNodes, nRels, nTrain, nTest, nCand, nonFinite), secs) = timed {

      val schema = g.schema
      val pT = schema.edgeType(task.predicate)
      val LPData(train, test, nodes, index) = split(read(g), pT.id, task.ratios._3)
      val dstRange = schema.nodeTypes(pT.dstType)
      val candidates = nodes.indices.filter(i => dstRange.contains(nodes(i))).toArray
      val nNodes = nodes.length
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
            val q = proj(p)(j) - lr * (dPos * (e(s)(j) - e(o)(j)) - dNeg * (e(s)(j) - e(oNeg)(j)))
            proj(p)(j) = math.max(-ProjBound, math.min(ProjBound, q))
          }
          j += 1
        }
      }

      val trainIdx = train.map { case (s, p, o) => (index(s), relIdx(p), index(o)) }
      for (_ <- 0 until epochs) {
        trainIdx.foreach { case (s, p, o) =>
          // half the negatives are type-compatible (hard), half uniform
          val oNeg =
            if (candidates.nonEmpty && rnd.nextBoolean()) candidates(rnd.nextInt(candidates.length))
            else rnd.nextInt(nNodes)
          if (oNeg != o) update(s, p, o, oNeg)
        }
      }

      // Hits@10 (raw: every candidate but the true one competes) and
      // filtered MRR (a candidate c with a known true (s, pT, c) in train or
      // test does not count against the rank), over type-compatible candidates
      def pair(s: Int, o: Int): Long = (s.toLong << 32) | o
      val known = mutable.HashSet[Long]()
      train.foreach { case (s, p, o) => if (p == pT.id) known += pair(index(s), index(o)) }
      test.foreach { case (s, o) => known += pair(index(s), index(o)) }
      val pIdx = relIdx.getOrElse(pT.id, 0)
      var hits = 0
      var reciprocal = 0.0
      var nonFinite = 0
      test.foreach { case (sRaw, oRaw) =>
        val s = index(sRaw)
        val o = index(oRaw)
        val sTrue = score(s, pIdx, o)
        // c outranks o unless its score is >= a finite sTrue: a NaN comparison
        // counts against the true object, and a non-finite sTrue ranks it last
        val finite = sTrue.isFinite
        var better = 0
        var betterFiltered = 0
        var allFinite = finite
        var i = 0
        while (i < candidates.length) {
          val c = candidates(i)
          val sc = score(s, pIdx, c)
          allFinite &&= sc.isFinite
          if (c != o && !(finite && sc >= sTrue)) {
            better += 1
            if (!known(pair(s, c))) betterFiltered += 1
          }
          i += 1
        }
        if (!allFinite) nonFinite += 1
        if (better < 10) hits += 1
        reciprocal += 1.0 / (betterFiltered + 1)
      }
      val scored = test.nonEmpty && candidates.nonEmpty
      val hits10 = if (scored) hits.toDouble / test.length else 0.0
      val mrr = if (scored) reciprocal / test.length else 0.0

      (hits10, mrr, nNodes, nRels, train.length, test.length, candidates.length, nonFinite)
    }
    val bigF = MemoryModel.F
    val projParams = if (method == "LHGNN") nRels.toLong * bigF else 0L
    val params = nNodes.toLong * bigF + nRels.toLong * bigF + projParams
    val mem = 16L * nTrain + 24L * params
    LPResult(method, hits10, mrr, secs, params, mem, nTrain.toLong, nTest.toLong, nCand, nonFinite)
  }
}
