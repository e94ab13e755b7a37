#!/usr/bin/env python3
"""Build and run the SDNFV benchmark from the repository root.

    python3 perfbench/run.py --workload fastpath --seed 1 --seconds 25 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's module through a replace directive, so it needs
the repository sources next to it. Everything the build and the run
write goes under .bench_build/ in the current directory: the Go build
cache, the binary, and per-run records (.bench_build/perfbench/). The
last line of standard output is the run's JSON result.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def source_revision():
    """The git commit when run in a work tree, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".bench_build", ".git"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # The go command keeps its config and telemetry counters under
        # the user config dir; keep them in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    for d in ("gocache", "tmp", "gopath", "config", "perfbench"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--out", os.path.join(BUILD, "perfbench"),
                           "--commit", source_revision()]
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
