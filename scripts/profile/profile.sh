#!/bin/sh
# Profile a command with the SIGPROF sampler and print where its CPU time
# went, by function (see README.md).
#
#   scripts/profile/profile.sh [-n RUNS] [-a NAME] -- COMMAND [ARGS...]
#
# Builds sampler.so, runs COMMAND RUNS times (default 1) with it preloaded
# (its output discarded), and reports every run's samples together;
# `-a NAME` also annotates the instructions of functions whose name
# contains NAME. The profiles go to a new temporary directory, removed at
# exit, so a report never mixes in an earlier run's.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
runs=1
annotate=
while [ $# -gt 0 ]; do
    case $1 in
        -n) runs=$2; shift 2 ;;
        -a) annotate=$2; shift 2 ;;
        --) shift; break ;;
        *) break ;;
    esac
done
[ $# -gt 0 ] || { echo "usage: $0 [-n RUNS] [-a NAME] -- COMMAND [ARGS...]" >&2; exit 2; }
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
gcc -O2 -shared -fPIC -o "$dir/sampler.so" "$here/sampler.c"
i=0
while [ "$i" -lt "$runs" ]; do
    SAMPLER_OUT="$dir/prof" LD_PRELOAD="$dir/sampler.so" "$@" > /dev/null
    i=$((i + 1))
done
set -- "$dir"/prof.*
if [ -n "$annotate" ]; then
    set -- "$@" --annotate "$annotate"
fi
python3 "$here/report.py" "$@"
