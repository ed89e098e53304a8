"""Timed phase of one benchmark run: ``python3 bench/worker.py SPEC.json``.

It runs in a process of its own so that its peak resident memory covers the
timed verbs and not the set-up before them; the peak is recorded after every
iteration.  The verbs run in-process through ``seriesdiff.cli.main``, one
after another (a closed loop with one client), and the whole sequence repeats
until the spec's seconds are about used up and at least ``min_iterations``
ran.  Slices of fixed reference work (``reference.py``) interrupt every
untraced verb, so that its time can be put in reference units.  With
tracing on, every second iteration runs traced, without slices.  Each
iteration writes its artifacts to its own directory, which ``run.py``
checks after this process has exited; the timings go to the result file
named in the spec.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def peak_rss_mib() -> float:
    """Peak resident memory of this process since it started, in MiB.

    This is ``VmHWM``, not ``ru_maxrss``: Linux keeps ``ru_maxrss`` across
    ``exec``, so in a process started by ``run.py`` it would include the
    memory ``run.py`` held at that moment, which is the set-up's.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_verb(cli_main, argv: list[str]) -> tuple[int | None, str | None]:
    """Exit code and error text of one verb; an exception counts as a failure."""
    try:
        return cli_main(argv), None
    except SystemExit as exc:  # argparse rejects bad flags this way
        return (exc.code if isinstance(exc.code, int) else 1), f"exit {exc.code}"
    except Exception:  # noqa: BLE001 - any escaping exception is a failed operation
        return None, traceback.format_exc(limit=8)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from seriesdiff.cli import main as cli_main

    from reference import Reference

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    work = Path(spec["work"])
    if spec.get("spans_path"):
        Path(spec["spans_path"]).write_text("")
    iterations: list[dict] = []
    reference = Reference()
    reference.run(10)  # warm-up, not recorded
    start = time.perf_counter()
    while True:
        index = len(iterations)
        traced = tracer is not None and index % 2 == 1
        out = work / f"iter{index}"
        record: dict = {"out": str(out), "traced": traced, "verbs": []}
        if traced:
            tracer.reset()
            tracer.trace_id = index
        ok = True
        t_iter = time.perf_counter()
        with tracer.installed() if traced else nullcontext():
            for verb, template in spec["verbs"]:
                argv = [a.replace("{out}", str(out)) for a in template]
                with tracer.span(f"cli.{verb}") if traced else nullcontext():
                    (rc, error), took, cpu, units, ref_s = reference.measure(
                        run_verb, cli_main, argv, interleave=not traced
                    )
                record["verbs"].append(
                    {"verb": verb, "rc": rc, "s": took, "cpu_s": cpu,
                     "ref_units": units, "ref_s": ref_s, "error": error}
                )
                if rc != 0:
                    ok = False
                    break
        record["wall_s"] = sum(v["s"] for v in record["verbs"])
        record["peak_rss_mb"] = peak_rss_mib()
        if traced:
            record["layers"] = tracer.summary()
            if spec.get("spans_path"):
                tracer.append_spans(spec["spans_path"])
        iterations.append(record)
        # Stop when another pass like this one would end more than half a
        # pass after the spec's seconds, so that the phase lasts about that long.
        now = time.perf_counter()
        done = now + 0.5 * (now - t_iter) - start > spec["seconds"]
        if not ok or (done and len(iterations) >= spec["min_iterations"]):
            break
    Path(spec["result"]).write_text(json.dumps({"iterations": iterations}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
