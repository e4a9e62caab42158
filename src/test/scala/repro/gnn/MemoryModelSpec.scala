package repro.gnn

import org.scalatest.funsuite.AnyFunSuite

class MemoryModelSpec extends AnyFunSuite {

  test("params formula matches the RGCN accounting") {
    val p = MemoryModel.params(n = 1000, r = 10, labels = 5, l = 2)
    assert(p == 1000L * 128 + 2L * 10 * 128 * 128 + 128L * 5)
  }

  test("params reproduce Table IV's magnitude at paper scale") {
    // PV/MAG FG: n = 42.4M, r = 62, L = 2 → paper reports 5349M params
    val p = MemoryModel.params(42400000L, 62, 20, 2)
    assert(math.abs(p / 1e6 - 5349) / 5349 < 0.05, s"params ${p / 1e6}M")
  }

  test("KG' params shrink like the paper's PV/MAG row (5349M → ~1415M)") {
    // the n·F embedding table dominates; the paper's KG' keeps ~11M nodes
    val fg = MemoryModel.params(42400000L, 62, 20, 2)
    val kgp = MemoryModel.params(11000000L, 4, 20, 2)
    assert(kgp < fg / 3)
    assert(math.abs(kgp / 1e6 - 1415) / 1415 < 0.05, s"KG' params ${kgp / 1e6}M")
  }

  test("memory grows with edges, nodes and relations") {
    val base = MemoryModel.trainingBytes(10000, 50000, 10, 5, 2, 500)
    assert(MemoryModel.trainingBytes(10000, 100000, 10, 5, 2, 500) > base)
    assert(MemoryModel.trainingBytes(20000, 50000, 10, 5, 2, 500) > base)
    assert(MemoryModel.trainingBytes(10000, 50000, 20, 5, 2, 500) > base)
  }

  test("gb converts bytes to gibibytes") {
    assert(MemoryModel.gb(1L << 30) == 1.0)
    assert(MemoryModel.gb(3L << 29) == 1.5)
  }
}
