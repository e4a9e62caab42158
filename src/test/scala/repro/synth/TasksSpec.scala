package repro.synth

import org.apache.spark.sql.functions._

import repro.{ColumnOracle, SparkSpec, TestKGs}

class TasksSpec extends SparkSpec {

  test("Table II declares six NC and three LP tasks") {
    assert(Tasks.ncTasks.size == 6)
    assert(Tasks.lpTasks.size == 3)
  }

  test("task ratios must sum to 1") {
    intercept[IllegalArgumentException](
      NCTask("X", "MAG-42M", "Paper", 4, TimeSplit, (0.5, 0.1, 0.1)))
    intercept[IllegalArgumentException](
      LPTask("X", "MAG-42M", "cites", TimeSplit, (0.5, 0.1, 0.1)))
  }

  test("nc lookup by key") {
    assert(Tasks.nc("PV/MAG-42M") == Tasks.PV_MAG)
    intercept[NoSuchElementException](Tasks.nc("ZZ/MAG-42M"))
  }

  for (task <- Tasks.ncTasks) {
    lazy val kg = task.kgName match {
      case "MAG-42M"  => TestKGs.mag
      case "YAGO-30M" => TestKGs.yago
      case "DBLP-15M" => TestKGs.dblp
    }

    test(s"${task.name}/${task.kgName}: every target is labeled exactly once") {
      val ls = Tasks.labeledSplit(kg, task)
      assert(ls.count() == kg.schema.nodeType(task.targetType).count)
      assert(ls.select("id").distinct().count() == ls.count())
    }

    test(s"${task.name}/${task.kgName}: labels are within [0, numLabels)") {
      val mm = Tasks.labeledSplit(kg, task).agg(min("label"), max("label")).head()
      assert(mm.getInt(0) >= 0)
      assert(mm.getInt(1) < task.numLabels)
    }

    test(s"${task.name}/${task.kgName}: fold ratios match the declared split") {
      val counts = Tasks.labeledSplit(kg, task).groupBy("fold").count().collect()
        .map(r => r.getInt(0) -> r.getLong(1)).toMap
      val total = counts.values.sum.toDouble
      // random splits on a few hundred targets carry sampling noise
      assert(math.abs(counts.getOrElse(0, 0L) / total - task.ratios._1) < 0.07)
      assert(math.abs(counts.getOrElse(2, 0L) / total - task.ratios._3) < 0.07)
    }

    test(s"${task.name}/${task.kgName}: every label occurs in train and test folds") {
      val ls = Tasks.labeledSplit(kg, task)
      val trainLabels = ls.filter(col("fold") === 0).select("label").distinct().count()
      val testLabels = ls.filter(col("fold") === 2).select("label").distinct().count()
      assert(trainLabels == task.numLabels)
      assert(testLabels == task.numLabels)
    }
  }

  test("labeledSplit is deterministic") {
    val a = Tasks.labeledSplit(TestKGs.mag, Tasks.PV_MAG)
    val b = Tasks.labeledSplit(TestKGs.mag, Tasks.PV_MAG)
    assert(a.exceptAll(b).count() == 0)
  }

  test("labeledSplit and lpSplit equal their Column projections, row for row (oracle)") {
    val kg = TestKGs.yago3
    for ((split, ratios) <- Seq(TimeSplit -> (0.5, 0.2, 0.3), RandomSplit -> (0.8, 0.1, 0.1))) {
      val nc = NCTask("CC", "YAGO3-10", "Person", 5, split, ratios)
      assert(Tasks.labeledSplit(kg, nc).collect().sameElements(ColumnOracle.labeledSplit(kg, nc).collect()), s"$split")
      for (lp <- Seq(Tasks.CA_YAGO3, Tasks.CA_YAGO3.copy(predicate = "livesIn", split = split, ratios = ratios)))
        assert(Tasks.lpSplit(kg, lp).collect().sameElements(ColumnOracle.lpSplit(kg, lp).collect()), s"${lp.predicate} $split")
    }
  }

  test("lpSplit covers exactly the target predicate's triples") {
    val kg = TestKGs.dblp
    val task = Tasks.AA_DBLP
    val pid = kg.schema.edgeType(task.predicate).id
    val split = Tasks.lpSplit(kg, task)
    assert(split.count() == kg.triples.filter(col("p") === pid).count())
    assert(split.filter(col("p") =!= pid).count() == 0)
  }

  test("lpSplit fold ratios approximate the declared split") {
    val kg = TestKGs.yago3
    val split = Tasks.lpSplit(kg, Tasks.CA_YAGO3)
    val counts = split.groupBy("fold").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val total = counts.values.sum.toDouble
    assert(counts.getOrElse(0, 0L) / total > 0.95)
  }

  test("labels derive from communities (same label ⇒ same community stripe)") {
    val kg = TestKGs.mag
    val t = kg.schema.nodeType("Paper")
    val ls = Tasks.labeledSplit(kg, Tasks.PV_MAG)
    val mismatched = ls.filter(
      pmod(pmod(col("id") - t.offset, lit(kg.schema.communities.toLong)), lit(Tasks.PV_MAG.numLabels))
        =!= col("label")).count()
    assert(mismatched == 0)
  }
}
