"""Run one cycleweights CLI call in this fresh process and report it.

    python3 child.py ROOT TRACE SPANS -- ARGV...

ROOT is the checkout holding ``src/cycleweights``; TRACE 1 installs the
per-module hooks; SPANS 1 also returns every span.  Prints one JSON object:
exit code, set-up and call time, peak RSS, the call's stdout and stderr and,
when traced, the per-module tallies.  Only ``time`` and ``sys`` are imported
before set-up is timed, so ``setup_s`` is the package's own import cost.
"""

import sys
import time


def main() -> None:
    root, trace, keep_spans = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, f"{root}/src")

    t0 = time.perf_counter()
    import cycleweights.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import resource

    run = cli.run
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        run = tracer.spanned(spans.ROOT, cli.run)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1 = time.perf_counter()
        code = run(argv)
        call_s = time.perf_counter() - t1
    report = {
        "code": code,
        "setup_s": setup_s,
        "call_s": call_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "out": out.getvalue(),
        "err": err.getvalue(),
    }
    if tracer is not None:
        tracer.uninstall()
        report["tallies"] = spans.tally(tracer.spans, tracer.counts,
                                        len(report["out"].encode()))
        report["absent"] = tracer.absent
        if keep_spans:
            report["spans"] = tracer.spans
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
