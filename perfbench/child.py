"""One fresh process of the benchmark: a set-up sample or one workload pass.

    python3 child.py setup
    python3 child.py pass '<spec json>'

Both time `import smoothdigits`, which builds the package's prime tables.
A pass then runs each command of the spec through `smoothdigits.cli.main`
with stdout sent to that command's output file, as a user's redirected
stdout would be.  The pass clock starts
after the import and stops once the last output file is closed.  The last
line of this process's stdout is its result as JSON.
"""

import json
import resource
import sys
import traceback
from time import perf_counter


class _FirstRecordClock:
    """File wrapper that notes when the first data record is complete: the
    second newline of a command's output, after its header line."""

    def __init__(self, raw, start, first):
        self._raw = raw
        self._start = start
        self._first = first  # shared by the commands of one pass
        self._newlines = 0

    def write(self, text):
        n = self._raw.write(text)
        self._newlines += text.count("\n")
        if self._newlines >= 2:
            if not self._first:
                self._first.append(perf_counter() - self._start)
            self.write = self._raw.write  # stop counting
        return n

    def __getattr__(self, name):
        return getattr(self._raw, name)


def _run(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails the command's records; keep the pass going
        traceback.print_exc()
        return 1


def main():
    start = perf_counter()
    import smoothdigits

    import_s = perf_counter() - start
    import smoothdigits.cli as cli

    result = {"import_s": import_s, "module": cli.__file__}
    if sys.argv[1] == "pass":
        spec = json.loads(sys.argv[2])
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        first = []
        codes = []
        start = perf_counter()
        for argv, path in zip(spec["commands"], spec["outputs"]):
            with open(path, "w", encoding="utf-8") as raw:
                sys.stdout = _FirstRecordClock(raw, start, first)
                try:
                    codes.append(_run(cli, argv))
                finally:
                    sys.stdout = sys.__stdout__
        wall = perf_counter() - start
        result.update(
            wall_s=wall,
            first_record_s=first[0] if first else wall,
            exit_codes=codes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            layers=tracer.totals() if tracer else None,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
