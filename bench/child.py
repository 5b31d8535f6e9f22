"""One benchmark process: run ``mflab.cli.main`` over a workload's argument lists.

Usage: ``python3 bench/child.py SPEC_JSON`` with ``mflab`` importable (the
benchmark puts the checkout's ``src`` on ``PYTHONPATH``).  SPEC_JSON holds

    argvs   list of argument lists, each passed to ``mflab.cli.main`` in turn
    result  path of the JSON file this process writes
    probe   stop at pipeline entry (measures set-up only)
    trace   path for the span dump, or null for an untraced run
    counter path of the calibration counter file (``calibrator.py``), or null

Pipeline entry is the moment ``cli.main`` hands the resolved configuration to
the command function, so set-up covers the interpreter, the numpy/scipy/mflab
imports and ``load_config``.  The result file holds the entry and exit
readings of the clock (``time.perf_counter``, CLOCK_MONOTONIC on Linux, so
comparable with the spawning process) and of the calibration counter, the exit
codes, ``ru_maxrss`` and the library versions.
"""

import json
import mmap
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    slots = None
    if spec["counter"]:
        with open(spec["counter"], "rb") as fh:
            slots = memoryview(mmap.mmap(fh.fileno(), 16, access=mmap.ACCESS_READ)).cast("q")

    from mflab import cli

    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    marks = []  # (clock, calibration count) at pipeline entry and exit

    def mark():
        marks.append((time.perf_counter(), None if slots is None else slots[0]))

    def timed(command):
        def run(cfg):
            mark()
            if not spec["probe"]:
                command(cfg)
                mark()

        return run

    for name, command in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = timed(command)

    codes = []
    for argv in spec["argvs"]:
        codes.append(cli.main(argv))
        if codes[-1] != 0 or spec["probe"]:
            break

    if recorder is not None:
        recorder.dump(spec["trace"])

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "codes": codes,
        "entry": marks[0] if marks else None,
        "exit": marks[-1] if marks else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        },
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
