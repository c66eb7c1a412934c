"""One benchmark run in a fresh process: the workload's CLI commands, in-process.

Run from the work directory with the program's ``src`` on ``PYTHONPATH``.
Each command's standard output is saved as ``run/cmd<i>.out``. With
``--trace FILE`` the layer probes are installed first and their totals are
written to FILE. With ``--warm`` the process only imports the CLI.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args()

    import copydet.cli

    if args.warm:
        return 0

    import workloads

    tracer = None
    if args.trace:
        import probes

        tracer = probes.Tracer()
        tracer.install()

    for i, argv in enumerate(workloads.commands(args.workload, args.seed)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = copydet.cli.main(argv)
        Path("run", f"cmd{i}.out").write_text(out.getvalue(), encoding="utf-8")
        if code != 0:
            print(f"child: copydet {' '.join(argv)} exited {code}", file=sys.stderr)
            return 3

    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
