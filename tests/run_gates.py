"""Run every exact-output gate of tests/gates.json:

    python3 tests/run_gates.py [--keep DIR] [--against DIR]

Each gate runs `python -m cubelab.cli` with its arguments, no shell, in one
temporary working directory, so later gates read the corpora earlier ones
wrote.  A gate passes when its exit code is the expected one and each file it
pins has the recorded sha256.  The checkout's src/ goes first on PYTHONPATH,
so this runs the same from a checkout or an install.  A gate's optional
`env` map is added to the environment of that gate's process alone, and
its optional `max_rss_mb` fails it when its process's peak RSS is above
that many MB.  Prints one line per gate, its seconds, its process's peak
RSS and its env first, and exits 1 if any gate failed.  When a
gate with an `env` map moves a pinned report (a JSON file with records), it
also prints tests/report_diff.py's summary of the new output against the
output of the earlier gate that pins the same sha256, the default run.

`--keep DIR` copies the work directory's files to DIR once every gate has
run.  `--against DIR` reads DIR as such a copy, from another tree: for each
pinned report (a JSON file with records) whose digest moved, it prints
tests/report_diff.py's summary of DIR's copy against the new output.
"""
import argparse
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from report_diff import diff_reports, format_diff

ROOT = Path(__file__).resolve().parents[1]


def moved_report_lines(old: Path, new: Path) -> list[str]:
    """report_diff's summary of two copies of one pinned output, or why
    there is none."""
    if not old.exists():
        return [f"no copy at {old}"]
    try:
        before, after = (json.loads(p.read_text()) for p in (old, new))
    except (ValueError, UnicodeDecodeError):
        return ["not JSON: no record diff"]
    if not all(isinstance(r, dict) and "records" in r for r in (before, after)):
        return ["not a report: no record diff"]
    return format_diff(diff_reports(before, after))


def run_gate(cmd: str, cwd: Path, env: dict) -> tuple[int, bytes, bytes, float]:
    """One gate's process: its exit code, its stdout and stderr (through
    temporary files, so it never blocks on a full pipe) and its peak RSS in
    MB, from the rusage that ``os.wait4`` returns for it alone."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "cubelab.cli", *shlex.split(cmd)],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        rss_mb = usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
        return proc.returncode, out.read(), err.read(), rss_mb


def run_gates(manifest=ROOT / "tests" / "gates.json", keep=None, against=None) -> int:
    spec = json.loads(Path(manifest).read_text())
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in spec["files"].items():
            (work / name).write_bytes(text.encode())
        pinned: dict[str, Path] = {}  # sha256 -> the first output that pins it
        for gate in spec["gates"]:
            start = time.perf_counter()
            gate_env = gate.get("env", {})
            code, stdout, stderr, rss_mb = run_gate(gate["cmd"], work, {**env, **gate_env})
            if "stdout" in gate:
                (work / gate["stdout"]).write_bytes(stdout)
            wrong = []
            if code != gate["exit"]:
                wrong.append(f"exit {code}, expected {gate['exit']}")
                wrong += stderr.decode().splitlines()[-1:]
            if rss_mb > gate.get("max_rss_mb", float("inf")):
                wrong.append(f"peak RSS {rss_mb:.1f} MB, above max_rss_mb {gate['max_rss_mb']}")
            for name, digest in gate["sha256"].items():
                out = work / name
                got = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "missing"
                if got != digest:
                    wrong.append(f"{name}: sha256 {got}, expected {digest}")
                    report = out.exists() and name.endswith(".json")
                    if against is not None and report:
                        wrong += [f"  {line}" for line in
                                  moved_report_lines(Path(against) / name, out)]
                    default = pinned.get(digest)
                    if gate_env and report and default is not None:
                        wrong.append(f"  against {default.name}:")
                        wrong += [f"  {line}" for line in moved_report_lines(default, out)]
                pinned.setdefault(digest, out)
            failed |= bool(wrong)
            seconds = time.perf_counter() - start
            label = " ".join([*(f"{k}={v}" for k, v in gate_env.items()), gate["cmd"]])
            print(f"{'FAIL' if wrong else 'ok'} {seconds:6.1f} s {rss_mb:7.1f} MB  {label}",
                  flush=True)
            for line in wrong:
                print(f"    {line}", flush=True)
        if keep is not None:
            shutil.copytree(work, keep, dirs_exist_ok=True)
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the exact-output gates.")
    parser.add_argument("--keep", metavar="DIR", help="copy the gates' outputs to DIR")
    parser.add_argument("--against", metavar="DIR",
                        help="diff each moved report against DIR's copy")
    args = parser.parse_args(argv)
    return run_gates(keep=args.keep, against=args.against)


if __name__ == "__main__":
    sys.exit(main())
