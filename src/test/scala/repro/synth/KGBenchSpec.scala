package repro.synth

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestKGs}
import repro.kg.KG

class KGBenchSpec extends SparkSpec {

  private def kgFor(name: String): KG = name match {
    case "MAG-42M"      => TestKGs.mag
    case "YAGO-30M"     => TestKGs.yago
    case "DBLP-15M"     => TestKGs.dblp
    case "ogbl-wikikg2" => TestKGs.wiki
    case "YAGO3-10"     => TestKGs.yago3
  }

  for (spec <- KGBench.all) {
    test(s"${spec.name}: node count matches the schema") {
      val kg = kgFor(spec.name)
      assert(kg.nodeTypes.count() == kg.schema.totalNodes)
    }

    test(s"${spec.name}: every node carries its range's type") {
      val kg = kgFor(spec.name)
      // spot-check one core and one filler type by range filter
      for (t <- Seq(kg.schema.nodeTypes.head, kg.schema.nodeTypes.last)) {
        val wrong = kg.nodeTypes
          .filter(col("id") >= t.offset && col("id") < t.offset + t.count)
          .filter(col("ntype") =!= t.id)
          .count()
        assert(wrong == 0, s"type ${t.name}")
      }
    }

    test(s"${spec.name}: edge endpoints respect declared src/dst type ranges") {
      val kg = kgFor(spec.name)
      val meta = spark.createDataFrame(kg.schema.edgeTypes.map { e =>
        val st = kg.schema.nodeTypes(e.srcType)
        val dt = kg.schema.nodeTypes(e.dstType)
        (e.id, st.offset, st.offset + st.count, dt.offset, dt.offset + dt.count)
      }).toDF("p", "sLo", "sHi", "oLo", "oHi")
      val bad = kg.triples.join(meta, "p")
        .filter(col("s") < col("sLo") || col("s") >= col("sHi") ||
                col("o") < col("oLo") || col("o") >= col("oHi"))
        .count()
      assert(bad == 0)
    }

    test(s"${spec.name}: generation is deterministic") {
      val a = KGBench.generate(spark, spec, TestKGs.UnitScale)
      val b = KGBench.generate(spark, spec, TestKGs.UnitScale)
      assert(a.triples.exceptAll(b.triples).count() == 0)
      assert(b.triples.exceptAll(a.triples).count() == 0)
    }
  }

  test("edge counts scale with the scale factor") {
    val small = KGBench.generate(spark, KGBench.YAGO3, 0.2).triples.count()
    val large = TestKGs.yago3.triples.count() // scale 0.5
    assert(large > small * 1.8 && large < small * 3.5)
  }

  test("affinity edges land in the source's community far above chance") {
    val kg = TestKGs.dblp
    val schema = kg.schema
    val e = schema.edgeType("authorAff") // affinity 0.85
    val st = schema.nodeTypes(e.srcType)
    val dt = schema.nodeTypes(e.dstType)
    val c = schema.communities
    val same = kg.triples.filter(col("p") === e.id)
      .filter(pmod(col("s") - st.offset, lit(c.toLong)) === pmod(col("o") - dt.offset, lit(c.toLong)))
      .count()
    val total = kg.triples.filter(col("p") === e.id).count()
    assert(total > 0)
    val frac = same.toDouble / total
    // 0.85 planted + 1/c chance hits; far above the 1/16 base rate
    assert(frac > 0.6, s"same-community fraction $frac")
  }

  test("non-affinity edges land in the source's community at chance rate") {
    val kg = TestKGs.dblp
    val schema = kg.schema
    val e = schema.edgeType("authorFan0") // affinity 0
    val st = schema.nodeTypes(e.srcType)
    val dt = schema.nodeTypes(e.dstType)
    val c = schema.communities
    val same = kg.triples.filter(col("p") === e.id)
      .filter(pmod(col("s") - st.offset, lit(c.toLong)) === pmod(col("o") - dt.offset, lit(c.toLong)))
      .count()
    val total = kg.triples.filter(col("p") === e.id).count()
    val frac = same.toDouble / total
    assert(frac < 3.0 / c, s"same-community fraction $frac should be ~1/$c")
  }

  test("zipf-skewed destinations concentrate on hub nodes") {
    val kg = TestKGs.dblp
    val e = kg.schema.edgeType("cites") // zipf 1.3
    val cited = kg.triples.filter(col("p") === e.id)
    val total = cited.count()
    val topShare = cited.groupBy(col("o")).count()
      .orderBy(col("count").desc).limit(10)
      .agg(sum(col("count"))).head().getLong(0).toDouble / total
    // uniform destinations would give top-10 ≈ 10/|Publication| ≈ 1.7% here
    assert(topShare > 0.08, s"top-10 destinations take $topShare of citations")
  }

  test("filler edges stay within filler node ranges") {
    val kg = TestKGs.mag
    val schema = kg.schema
    val fillerStart = schema.nodeTypes(KGBench.MAG.coreNodes.size).offset
    val fillerPs = schema.edgeTypes.filter(_.name.startsWith("rel")).map(_.id)
    val bad = kg.triples
      .filter(col("p").isin(fillerPs: _*))
      .filter(col("s") < fillerStart || col("o") < fillerStart)
      .count()
    assert(bad == 0)
  }

  test("Table I shape: every declared edge type is populated at bench scale") {
    // at unit scale some filler types may collapse to ~1 edge; check MAG
    val present = TestKGs.mag.triples.select("p").distinct().count()
    assert(present == TestKGs.mag.schema.edgeTypes.size)
  }

  test("zipfExpr skews toward low ranks") {
    val df = spark.range(20000).select(
      KGBench.zipfExpr(KG.hashRand(5, col("id")), 1000, 1.3) as "k")
    val top = df.filter(col("k") === 0).count().toDouble / 20000
    assert(top > 0.1, s"rank-0 share $top")
    val mm = df.agg(min("k"), max("k")).head()
    assert(mm.getLong(0) >= 0 && mm.getLong(1) <= 999)
  }

  test("spec lookup resolves names and rejects unknowns") {
    assert(KGBench.spec("MAG-42M").name == "MAG-42M")
    intercept[NoSuchElementException](KGBench.spec("nope"))
  }
}
