"""Build file of the benchmark: compiles the program and the benchmark with scalac.

The program's sources (``src/main/scala``) and the benchmark's own sources
(``perfbench/src``) are compiled together by the Scala compiler that ships
with the Spark distribution, against the Spark jars and the DuckDB JDBC
driver. Everything is written under ``.bench_build/`` at the repository
root, and a stamp of the source contents makes a rebuild happen only when a
source changes.

    python3 perfbench/build.py        # build, print the runtime classpath
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

SCALA_VERSION = "2.13.17"  # must match build.sbt's scalaVersion
DUCKDB_JAR = "duckdb_jdbc-1.0.0.jar"  # must match build.sbt's duckdb_jdbc


def _spark_home():
    """$SPARK_HOME, else the distribution whose spark-submit is on PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if submit:
        return os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    raise SystemExit("build: set SPARK_HOME or put spark-submit on PATH")


SPARK_HOME = _spark_home()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "classes.stamp")


def sources():
    """Every Scala source of the program and of the benchmark, sorted."""
    found = glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True)
    found += glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True)
    return sorted(found)


def spark_jars():
    jars = sorted(glob.glob(os.path.join(SPARK_HOME, "jars", "*.jar")))
    if not jars:
        raise SystemExit(f"build: no Spark jars under {SPARK_HOME}/jars")
    return jars


def duckdb_jar():
    """The DuckDB JDBC jar from the local coursier cache (the DuckDB oracle needs it)."""
    roots = [os.environ.get("COURSIER_CACHE"), os.path.expanduser("~/.cache/coursier")]
    for root in filter(None, roots):
        hits = sorted(glob.glob(os.path.join(root, "**", "org", "duckdb", "duckdb_jdbc", "*", DUCKDB_JAR),
                                recursive=True))
        if hits:
            return hits[0]
    raise SystemExit(f"build: {DUCKDB_JAR} not found in the coursier cache")


def runtime_classpath():
    """Classpath of the benchmark JVM: its resources first (log4j2 config), then classes, then jars."""
    spark_jars()  # fail early when the distribution is missing
    return [os.path.join(HERE, "resources"), CLASSES, os.path.join(SPARK_HOME, "jars", "*"), duckdb_jar()]


def _stamp(srcs):
    h = hashlib.sha256(SCALA_VERSION.encode())
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def source_stamp():
    return _stamp(sources())


def build():
    """Compile if any source changed since the last build; return the runtime classpath."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        raise SystemExit(f"build: the program's sources are not under {ROOT}/src/main/scala")
    srcs = sources()
    stamp = _stamp(srcs)
    if os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return runtime_classpath()
    compiler = [os.path.join(SPARK_HOME, "jars", f"scala-{m}-{SCALA_VERSION}.jar")
                for m in ("compiler", "library", "reflect")]
    missing = [j for j in compiler if not os.path.exists(j)]
    if missing:
        raise SystemExit(f"build: Scala {SCALA_VERSION} compiler jars missing: {missing}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    args_file = os.path.join(OUT, "scalac.args")
    with open(args_file, "w") as f:
        f.write("\n".join(srcs) + "\n")
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
           "-deprecation", "-nowarn",
           "-classpath", os.pathsep.join(spark_jars()),
           "-d", CLASSES, "@" + args_file]
    print(f"build: compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("build: scalac failed")
    with open(STAMP, "w") as f:
        f.write(stamp)
    return runtime_classpath()


if __name__ == "__main__":
    print(os.pathsep.join(build()))
