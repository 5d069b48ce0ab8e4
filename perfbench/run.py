#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go toolchain's caches, temporary files and the binary all go under
the build directory (CARGO_TARGET_DIR if set, else .bench_build), so a
run reads and writes nothing outside the checkout but the toolchain
itself. Every argument is passed to the benchmark binary, whose last
line of standard output is the result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CACHE_HOME", "home/.cache"), ("XDG_CONFIG_HOME", "home/.config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    # Build offline with the installed toolchain only.
    env.update(GOFLAGS="", GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off",
               GOENV="off", CGO_ENABLED="0", GOWORK="off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
