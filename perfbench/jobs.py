"""Workloads, job lists and output checks for the gradedrings benchmark.

A job is one `gradedrings.cli.main` call on an algebra file, exactly what a
user of the command line runs:

    check  <file> --property <prop> --json --seed <seed>
    oracle <file> --what <target> --json

Job names are `<instance>/<property>` for `check` and
`<instance>/oracle-<target>` for `oracle`.  The gradedrings modules are
imported inside the functions below, because the benchmark re-imports the
package for every set-up it times.
"""
from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The command line's properties and oracle targets, copied so that the job
# lists stay fixed when the command line grows.
PROPERTIES = (
    "valid",
    "strong",
    "nondegenerate",
    "graded-simple",
    "simple",
    "controlled",
    "crossed-product",
    "centralizer",
    "picard-injective",
    "necessary",
    "crossed-controlled",
    "subrings",
)
ORACLE_TARGETS = ("sub-bimodules", "subrings", "ideals", "controlled")

WORKLOADS = ("ladder-gfp", "ladder-q", "corpus-cli")


def _ladder_builders():
    from gradedrings.builders import (
        full_matrix_algebra,
        galois_skew_example,
        group_algebra,
        m3_example,
    )
    from gradedrings.groups import cyclic_group
    from gradedrings.linalg import GF, RATIONALS

    return {
        "galois-2-4": lambda: galois_skew_example(2, 4),
        "galois-2-6": lambda: galois_skew_example(2, 6),
        "galois-3-3": lambda: galois_skew_example(3, 3),
        "m3-gf2": lambda: m3_example(GF(2)),
        "m3-gf3": lambda: m3_example(GF(3)),
        "m3-q": lambda: m3_example(RATIONALS),
        "mat3-q": lambda: full_matrix_algebra(RATIONALS, 3),
        "mat4-q": lambda: full_matrix_algebra(RATIONALS, 4),
        "mat5-q": lambda: full_matrix_algebra(RATIONALS, 5),
        "q-z3": lambda: group_algebra(RATIONALS, cyclic_group(3)),
    }


def workload(name: str):
    """(instances by name, job list as (instance, property) pairs) of a workload."""
    if name == "corpus-cli":
        from gradedrings.corpus import oracle_scale_corpus

        instances = {inst.name: inst.alg for inst in oracle_scale_corpus()}
        props = PROPERTIES + tuple("oracle-" + t for t in ORACLE_TARGETS)
        return instances, [(n, p) for n in instances for p in props]
    if name == "ladder-gfp":
        job_list = [
            (n, p)
            for n in ("galois-2-4", "galois-2-6", "galois-3-3", "m3-gf2", "m3-gf3")
            for p in PROPERTIES
        ]
    elif name == "ladder-q":
        # M4(Q) takes about a minute for all twelve properties, so only the two
        # envelope-bound ones run in the repeated workload.  Q[Z3] is the one
        # input whose envelope is not dense, so `simple` reaches the rational
        # eigenvalue search.
        job_list = [(n, p) for n in ("m3-q", "mat3-q", "q-z3") for p in PROPERTIES]
        job_list += [("mat4-q", "simple"), ("mat4-q", "controlled")]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return build_instances(dict.fromkeys(n for n, _ in job_list)), job_list


def build_instances(names) -> dict:
    """Build the named instances with the package's own builders and corpus."""
    wanted = set(names)
    ladder = _ladder_builders()
    out = {n: ladder[n]() for n in sorted(wanted & set(ladder))}
    if wanted - set(out):
        from gradedrings.corpus import oracle_scale_corpus

        for inst in oracle_scale_corpus():
            if inst.name in wanted:
                out[inst.name] = inst.alg
    missing = wanted - set(out)
    if missing:
        raise ValueError(f"unknown instances: {sorted(missing)}")
    return out


def write_inputs(instances: dict, directory: str) -> dict:
    """Write each instance as an algebra file; returns name -> path."""
    from gradedrings.serialize import save_algebra

    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, alg in instances.items():
        paths[name] = os.path.join(directory, name + ".json")
        save_algebra(alg, paths[name])
    return paths


def argv_for(job, paths: dict, seed: int) -> list:
    instance, prop = job
    if prop.startswith("oracle-"):
        return ["oracle", paths[instance], "--what", prop[len("oracle-"):], "--json"]
    return ["check", paths[instance], "--property", prop, "--json", "--seed", str(seed)]


def load_reference() -> dict:
    """Expected exit codes keyed by job name, from reference.json."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    return {key: entry["exit"] for key, entry in table["jobs"].items()}


def job_key(job) -> str:
    return f"{job[0]}/{job[1]}"


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

_VERDICT_BY_EXIT = {0: "true", 1: "false", 3: "inconclusive"}


def check_output(job, expected_exit: int, rc, stdout: str, stderr: str):
    """None when the job's output matches its reference, else the reason.

    Exit 2 must come with an `error:` line on stderr and no report.  Any
    other exit must come with a JSON report whose verdict matches the exit
    code; oracle enumerations report no verdict and exit 0.
    """
    if rc != expected_exit:
        return f"exit {rc}, expected {expected_exit}"
    if rc == 2:
        if stdout or not stderr.startswith("error:"):
            return "refusal without a one-line error"
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON"
    verdict = report.get("verdict")
    if isinstance(verdict, bool):
        verdict = "true" if verdict else "false"
    if job[1].startswith("oracle-") and job[1] != "oracle-controlled":
        return None if verdict is None else "oracle enumeration reported a verdict"
    if verdict != _VERDICT_BY_EXIT.get(rc):
        return f"verdict {verdict!r} with exit {rc}"
    return None


def oracle_cross_check(instance: str, dim: int, outputs: dict) -> dict:
    """Compare one corpus instance's checks with its oracles from the same pass.

    `outputs` maps a property to (exit code, stdout) for this instance.
    Returns property -> reason for every check that disagrees, following
    scripts/run_corpus.py: `controlled` against the controlled oracle,
    `simple` against "the only ideals are 0 and R", `graded-simple`
    against "no proper nonzero ideal is graded", and `subrings` against
    the subring oracle's count and dimensions.
    """
    bad = {}

    def report(prop):
        rc, text = outputs[prop]
        return rc, (json.loads(text) if rc in (0, 1, 3) else None)

    rc, ideals = report("oracle-ideals")
    if ideals is None:
        return {"oracle-ideals": f"no ideal list (exit {rc})"}
    ring = ideals["ring"]["ideals"]
    proper = [i for i in ring if 0 < i["dim"] < dim]
    want = {
        "simple": not proper,
        "graded-simple": not any(i["graded"] for i in proper),
    }
    _, ctrl = report("oracle-controlled")
    want["controlled"] = ctrl["verdict"]
    for prop, holds in want.items():
        rc, _ = outputs[prop]
        if rc != (0 if holds else 1):
            bad[prop] = f"exit {rc}, oracle says {'holds' if holds else 'fails'}"

    rc, sub = report("subrings")
    if rc == 0:
        _, orc = report("oracle-subrings")
        ours = sorted(s["total_dim"] for s in sub["subrings"])
        if sub["count"] != orc["count"] or ours != orc["dims"]:
            bad["subrings"] = f"{sub['count']} subrings {ours}, oracle {orc['count']} {orc['dims']}"
    return bad
