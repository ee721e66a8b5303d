"""The timed process: loads one workload's prepared inputs, warms up, then
runs whole rounds of its calls for the given time and writes a JSON
record of every call (with the calibration kernel's times after it), its
own peak resident memory and, when traced, the spans.

run.py starts it after set-up, so that the peak memory it reports is the
timed part's alone:

    python3 vadbench/worker.py JOB.json
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import stats
    import tracing
    import workloads

    spec = json.loads(Path(job["spec"]).read_text(encoding="utf-8"))
    out = Path(job["out"])
    out.mkdir(parents=True)
    ops = workloads.make_round(spec)
    workloads.warm_up(spec, ops, out)
    tracer = tracing.Tracer() if job["trace"] else None
    # a traced run alternates untraced and traced rounds, so it needs two
    records = stats.run_rounds(ops, job["seconds"], out, tracer, min_rounds=2 if tracer else 1)
    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else [],
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
