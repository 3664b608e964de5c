"""Print what the fibercert CLI answers to a fixed list of calls.

Usage: python3 tools/cli_snapshot.py

Each call runs ``fibercert.cli.main`` in process, on the package in this
checkout's src/ and its two bundled datasets, and prints one JSON line: the
argv as written below, with ``{r1}``, ``{r2}`` and ``{cert}`` standing for
the two datasets and a temporary certificate file, the exit code, stdout and
stderr.  ``bound`` writes the certificate that the ``verify`` after it reads.
The output names no path of this checkout, so a ``diff`` of it between two
checkouts shows every change in what the CLI prints.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _calls() -> list[list[str]]:
    calls = []
    for ds in ("{r1}", "{r2}"):
        calls.append(["ingest", ds])
        calls += [["charpoly", ds, "--p", str(p)] for p in (1, 3)]
        # 2000, the power cap, lies far past the semiring route's period window.
        calls += [[route, ds, "--p", str(p)] for route in ("omega", "oracle")
                  for p in (0, 1, 5, 17, 2000)]
        calls += [["cone", ds, "--p-max", str(p)] for p in (4, 12, 20, 2000)]
    calls.append(["cone", "{r2}", "--p-max", "80"])  # the cone-r2 benchmark's build
    for ds, alpha, extra in (("{r1}", "1,9", []), ("{r1}", "1,29", []),
                             ("{r2}", "1,7,50", ["--mirror"]),
                             ("{r2}", "1,20,401", ["--mirror"])):
        calls.append(["bound", ds, "--alpha", alpha, *extra, "--out", "{cert}"])
        calls.append(["verify", "{cert}", "--dataset", ds])
    calls.append(["sweep", "{r1}", "--base", "1,9", "--direction", "0,2",
                  "--stop", "4", "--p-max", "16"])
    calls.append(["sweep", "{r2}", "--classes", "[[1,7,50],[1,8,65]]",
                  "--p-max", "16", "--mirror"])
    return calls


def main() -> int:
    sys.path.insert(0, str(SRC))
    from fibercert.cli import main as cli_main

    data = SRC / "fibercert" / "data"
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{r1}": str(data / "rose_r1.json"), "{r2}": str(data / "rose_r2.json"),
                 "{cert}": str(Path(tmp) / "cert.json")}
        for argv in _calls():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main([paths.get(arg, arg) for arg in argv])
            print(json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue(),
                              "stderr": err.getvalue()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
