package repro.synth

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.kg.{EdgeTypeInfo, KG, KGSchema, NodeTypeInfo}

/** Spec of one core (named) node type; ``count`` is at scale 1.0. */
final case class CoreNode(name: String, count: Long)

/** Spec of one core (named) edge type.
  *
  * @param affinity probability that an edge lands inside the destination
  *                 block of the source node's latent community — the signal
  *                 that makes task labels learnable from neighbourhoods
  * @param zipf     if > 0, non-affinity destinations are zipf-skewed with
  *                 this exponent (hub structure, e.g. citation graphs)
  */
final case class CoreEdge(name: String, src: String, dst: String, count: Long,
                          affinity: Double = 0.0, zipf: Double = 0.0)

/** Spec of the filler ("misc") part of a KG: ``nTypes`` anonymous node types
  * of ``nodesPerType`` nodes each, and ``eTypes`` anonymous edge types of
  * ``edgesPerType`` edges each, wired among the filler types. Fillers bring
  * each synthetic KG up to the paper's |C| and |R| counts and provide the
  * task-irrelevant bulk that KG-TOSA prunes.
  */
final case class FillerSpec(nTypes: Int, nodesPerType: Long, eTypes: Int, edgesPerType: Long)

/** Full spec of a synthetic KG at scale 1.0. */
final case class KGSpec(
    name: String,
    communities: Int,
    coreNodes: Seq[CoreNode],
    coreEdges: Seq[CoreEdge],
    filler: FillerSpec,
    seed: Int,
)

/** Seeded synthetic generators reproducing the *shape* of the paper's five
  * benchmark KGs (Table I) at 1/1000 of the published size (1/100 for
  * YAGO3-10, which is already small). Node/edge-type counts match the paper
  * except ogbl-wikikg2, whose 9.3K node types cannot fit in a 2.5K-node
  * scale-down — substituted with 125 types (documented in DESIGN.md).
  *
  * All randomness is hash-based ([[KG.hashRand]]): the generated graph is a
  * pure function of (spec, scale), independent of partitioning.
  */
object KGBench {

  private def sc(x: Long, scale: Double): Long = math.max(1L, math.round(x * scale))

  /** A "fan" of noise attachments: ``n`` edge types from ``src`` to misc
    * types ``misc{from}..misc{from+n-1}``, ``per`` edges each, destinations
    * zipf-skewed so neighbourhoods overlap on hub nodes (real KGs attach
    * entities to many auxiliary classes through a few popular objects —
    * this is what gives the paper's KG' its 1-hop type diversity).
    */
  def fan(src: String, from: Int, n: Int, per: Long, zipf: Double = 1.2): Seq[CoreEdge] =
    (0 until n).map(i => CoreEdge(s"${src.toLowerCase}Fan$i", src, s"misc${from + i}", per, zipf = zipf))

  /** Build the [[KGSchema]] for a spec at a scale (pure, no Spark). */
  def schemaFor(spec: KGSpec, scale: Double): KGSchema = {
    val coreInfos = {
      var off = 0L
      spec.coreNodes.zipWithIndex.map { case (cn, i) =>
        val cnt = sc(cn.count, scale)
        val info = NodeTypeInfo(i, cn.name, off, cnt)
        off += cnt
        info
      }
    }
    val coreEnd = coreInfos.map(_.count).sum
    val perFill = sc(spec.filler.nodesPerType, scale)
    val fillInfos = (0 until spec.filler.nTypes).map { j =>
      NodeTypeInfo(spec.coreNodes.size + j, s"misc$j", coreEnd + j * perFill, perFill)
    }
    val nodeInfos = (coreInfos ++ fillInfos).toIndexedSeq

    val byName = nodeInfos.map(t => t.name -> t.id).toMap
    val coreEdgeInfos = spec.coreEdges.zipWithIndex.map { case (ce, i) =>
      EdgeTypeInfo(i, ce.name, byName(ce.src), byName(ce.dst))
    }
    val fT = spec.filler.nTypes
    val fillEdgeInfos = (0 until spec.filler.eTypes).map { j =>
      EdgeTypeInfo(spec.coreEdges.size + j, s"rel$j",
        spec.coreNodes.size + (j % fT),
        spec.coreNodes.size + ((j * 7 + 3) % fT))
    }
    KGSchema(spec.name, nodeInfos, (coreEdgeInfos ++ fillEdgeInfos).toIndexedSeq, spec.communities)
  }

  /** Column-level zipf draw: maps a uniform(0,1) column ``u`` to a 0-based
    * rank in ``[0, nKeys)`` with P(rank k) ∝ (k+1)^-alpha (Pareto inverse-CDF
    * approximation). Plants the hub-skewed degree distributions.
    */
  def zipfExpr(u: Column, nKeys: Long, alpha: Double): Column =
    least(lit(nKeys - 1),
          greatest(lit(0L),
            (pow(lit(1.0) / (u + 1e-9), lit(1.0 / alpha)) - 1.0).cast("long")))

  /** Community of an id column: round-robin stripe within the type range
    * (must match [[KGSchema.communityOf]]).
    */
  private def commCol(s: Column, t: NodeTypeInfo, c: Int): Column =
    pmod(s - t.offset, lit(c.toLong)).cast("int")

  /** A destination id in type range ``dt`` belonging to community ``comm``:
    * the stripe ``dt.offset + comm + c*k`` for a block index ``k``. When the
    * edge type is zipf-skewed the block index is zipf-drawn too, so each
    * community's neighbours concentrate on hub entities — real KGs share
    * signal neighbours across targets, which is what makes task-oriented
    * subgraphs overlap-compact and transductively learnable.
    * Clamped into the range for types smaller than the community count.
    */
  private def affinityDst(comm: Column, u: Column, dt: NodeTypeInfo, c: Int, zipf: Double): Column = {
    val blocks = math.max(1L, dt.count / c)
    val block = if (zipf > 0) zipfExpr(u, blocks, zipf) else floor(u * blocks).cast("long")
    least(lit(dt.offset + dt.count - 1),
          (lit(dt.offset) + comm + block * c).cast("long"))
  }

  /** Generate the KG for a spec at a scale. Deterministic in (spec, scale). */
  def generate(spark: SparkSession, spec: KGSpec, scale: Double = 1.0): KG = {
    val schema = schemaFor(spec, scale)
    val c = spec.communities

    // -- core edges: one small DF per named edge type ----------------------
    val coreDfs = spec.coreEdges.zipWithIndex.map { case (ce, i) =>
      val info = schema.edgeTypes(i)
      val st = schema.nodeTypes(info.srcType)
      val dt = schema.nodeTypes(info.dstType)
      val n = sc(ce.count, scale)
      val salt = spec.seed * 1000 + i * 10
      val u1 = KG.hashRand(salt + 1, col("id"))
      val u2 = KG.hashRand(salt + 2, col("id"))
      val u3 = KG.hashRand(salt + 3, col("id"))
      val u4 = KG.hashRand(salt + 4, col("id"))
      val src = (lit(st.offset) + floor(u1 * st.count)).cast("long")
      val comm = commCol(src, st, c)
      val baseDst =
        if (ce.zipf > 0) lit(dt.offset) + zipfExpr(u2, dt.count, ce.zipf)
        else (lit(dt.offset) + floor(u2 * dt.count)).cast("long")
      val affDst = affinityDst(comm, u3, dt, c, ce.zipf)
      val dst = when(u4 < ce.affinity, affDst).otherwise(baseDst)
      spark.range(n).select(src as "s", lit(info.id) as "p", dst.cast("long") as "o")
    }

    // -- filler edges: one DF, edge type derived arithmetically ------------
    val fT = spec.filler.nTypes
    val fE = spec.filler.eTypes
    val perNode = sc(spec.filler.nodesPerType, scale)
    val perEdge = sc(spec.filler.edgesPerType, scale)
    val fillerNodeBase = schema.nodeTypes(spec.coreNodes.size).offset
    val fillerDf = if (fE == 0) None else Some {
      val salt = spec.seed * 1000 + 777
      val j = (col("id") % fE).cast("int")
      val u1 = KG.hashRand(salt + 1, col("id"))
      val u2 = KG.hashRand(salt + 2, col("id"))
      val srcOff = lit(fillerNodeBase) + (j % fT).cast("long") * perNode
      val dstOff = lit(fillerNodeBase) + ((j * 7 + 3) % fT).cast("long") * perNode
      spark.range(fE.toLong * perEdge).select(
        (srcOff + floor(u1 * perNode)).cast("long") as "s",
        (lit(spec.coreEdges.size) + j).cast("int") as "p",
        (dstOff + floor(u2 * perNode)).cast("long") as "o",
      )
    }

    val triples = (coreDfs ++ fillerDf).reduce(_ union _)

    // -- node-type table ----------------------------------------------------
    val coreNodesDf = schema.nodeTypes.take(spec.coreNodes.size).map { t =>
      spark.range(t.offset, t.offset + t.count).select(col("id"), lit(t.id) as "ntype")
    }
    val fillerNodesDf =
      if (fT == 0) None
      else Some {
        spark.range(fillerNodeBase, fillerNodeBase + fT.toLong * perNode).select(
          col("id"),
          (lit(spec.coreNodes.size) + floor((col("id") - fillerNodeBase) / perNode)).cast("int") as "ntype",
        )
      }
    val nodeTypes = (coreNodesDf ++ fillerNodesDf).reduce(_ union _)

    KG(schema, triples, nodeTypes)
  }

  // =========================================================================
  // The five benchmark KGs (Table I), specs at scale 1.0 = 1/1000 of the
  // paper's sizes (1/100 for YAGO3-10). Affinities are tuned so the planted
  // tasks land in the paper's accuracy neighbourhoods (e.g. CG/YAGO is hard).
  // =========================================================================

  /** MAG-42M → MAG-lite: 58 node types, 62 edge types, ~42K nodes, ~166K edges. */
  val MAG: KGSpec = KGSpec(
    name = "MAG-42M",
    communities = 20,
    coreNodes = Seq(
      CoreNode("Paper", 15000), CoreNode("Author", 12000), CoreNode("Venue", 100),
      CoreNode("FieldOfStudy", 600), CoreNode("Affiliation", 400),
    ),
    coreEdges = Seq(
      CoreEdge("hasAuthor", "Paper", "Author", 30000, affinity = 0.90, zipf = 1.2),
      CoreEdge("cites", "Paper", "Paper", 25000, affinity = 0.80, zipf = 1.3),
      CoreEdge("hasField", "Paper", "FieldOfStudy", 15000, affinity = 0.90, zipf = 1.2),
      CoreEdge("authorAffiliated", "Author", "Affiliation", 12000, affinity = 0.50, zipf = 1.2),
      CoreEdge("authorKnows", "Author", "Author", 8000),
    ) ++ fan("Paper", from = 0, n = 12, per = 800) ++ fan("Author", from = 12, n = 8, per = 700),
    filler = FillerSpec(nTypes = 53, nodesPerType = 270, eTypes = 37, edgesPerType = 1640),
    seed = 41,
  )

  /** YAGO-30M (YAGO-4) → YAGO-lite: 104 node types, 98 edge types, ~31K nodes, ~400K edges. */
  val YAGO: KGSpec = KGSpec(
    name = "YAGO-30M",
    communities = 16,
    coreNodes = Seq(
      CoreNode("Place", 6000), CoreNode("CreativeWork", 6000), CoreNode("Person", 8000),
      CoreNode("Organization", 2000), CoreNode("Country", 64), CoreNode("Genre", 48),
    ),
    coreEdges = Seq(
      CoreEdge("locatedIn", "Place", "Place", 30000, affinity = 0.85, zipf = 1.2),
      CoreEdge("placeLeader", "Place", "Person", 20000, affinity = 0.80, zipf = 1.2),
      CoreEdge("createdBy", "CreativeWork", "Person", 40000, affinity = 0.45, zipf = 1.2),
      CoreEdge("aboutPlace", "CreativeWork", "Place", 20000, affinity = 0.30, zipf = 1.2),
      CoreEdge("personLivesIn", "Person", "Place", 30000, affinity = 0.70, zipf = 1.2),
      CoreEdge("worksFor", "Person", "Organization", 20000, affinity = 0.50, zipf = 1.2),
    ) ++ fan("Place", from = 0, n = 12, per = 1200) ++
      fan("CreativeWork", from = 12, n = 16, per = 1200) ++
      fan("Person", from = 28, n = 12, per = 1500),
    filler = FillerSpec(nTypes = 98, nodesPerType = 88, eTypes = 52, edgesPerType = 3620),
    seed = 30,
  )

  /** DBLP-15M → DBLP-lite: 42 node types, 48 edge types, ~16K nodes, ~252K edges. */
  val DBLP: KGSpec = KGSpec(
    name = "DBLP-15M",
    communities = 16,
    coreNodes = Seq(
      CoreNode("Publication", 6000), CoreNode("Author", 5000), CoreNode("Venue", 80),
      CoreNode("Country", 48), CoreNode("Affiliation", 320),
    ),
    coreEdges = Seq(
      CoreEdge("hasAuthor", "Publication", "Author", 30000, affinity = 0.90, zipf = 1.2),
      CoreEdge("cites", "Publication", "Publication", 40000, affinity = 0.85, zipf = 1.3),
      CoreEdge("authorAff", "Author", "Affiliation", 10000, affinity = 0.85, zipf = 1.2),
      CoreEdge("coAuthor", "Author", "Author", 20000, affinity = 0.80, zipf = 1.2),
    ) ++ fan("Publication", from = 0, n = 10, per = 1400) ++ fan("Author", from = 10, n = 8, per = 1300),
    filler = FillerSpec(nTypes = 37, nodesPerType = 113, eTypes = 26, edgesPerType = 4900),
    seed = 15,
  )

  /** ogbl-wikikg2 → WikiKG2-lite: ~2.5K nodes, ~17K edges. The paper's 9.3K
    * node types exceed the scaled node count; substituted with 125 types.
    */
  val WIKIKG2: KGSpec = KGSpec(
    name = "ogbl-wikikg2",
    communities = 12,
    coreNodes = Seq(
      CoreNode("Entity", 800), CoreNode("Occupation", 60),
      CoreNode("Human", 600), CoreNode("Place", 300),
    ),
    coreEdges = Seq(
      CoreEdge("occupationOf", "Human", "Occupation", 2000, affinity = 0.80, zipf = 1.2),
      CoreEdge("bornIn", "Human", "Place", 1500, affinity = 0.60, zipf = 1.2),
      CoreEdge("relatedTo", "Entity", "Entity", 3000, zipf = 1.2),
    ) ++ fan("Human", from = 0, n = 8, per = 250) ++ fan("Entity", from = 8, n = 8, per = 250),
    filler = FillerSpec(nTypes = 121, nodesPerType = 6, eTypes = 41, edgesPerType = 160),
    seed = 22,
  )

  /** YAGO3-10 → YAGO3-lite at 1/100: 23 node types, 37 edge types, ~1.2K nodes, ~11K edges. */
  val YAGO3: KGSpec = KGSpec(
    name = "YAGO3-10",
    communities = 10,
    coreNodes = Seq(
      CoreNode("Person", 500), CoreNode("City", 100),
      CoreNode("Country", 30), CoreNode("Film", 200),
    ),
    coreEdges = Seq(
      CoreEdge("isCitizenOf", "Person", "Country", 800, affinity = 0.80, zipf = 1.2),
      CoreEdge("livesIn", "Person", "City", 800, affinity = 0.70, zipf = 1.2),
      CoreEdge("actedIn", "Person", "Film", 1200),
      CoreEdge("cityInCountry", "City", "Country", 300, affinity = 0.90),
    ) ++ fan("Person", from = 0, n = 8, per = 150),
    filler = FillerSpec(nTypes = 19, nodesPerType = 21, eTypes = 25, edgesPerType = 268),
    seed = 3,
  )

  /** All benchmark specs keyed by KG name. */
  val all: Seq[KGSpec] = Seq(MAG, YAGO, DBLP, WIKIKG2, YAGO3)

  /** Spec lookup by KG name; throws on unknown name. */
  def spec(kgName: String): KGSpec =
    all.find(_.name == kgName)
      .getOrElse(throw new NoSuchElementException(s"unknown KG $kgName"))
}
