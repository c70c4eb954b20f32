# Sourced first by each ci/*.sh script, whose arguments are WORK CLI...
# CLI is the command that runs colordesc: `colordesc` for the installed
# script, `python -m colordesc.cli` for a source tree on PYTHONPATH. WORK is
# a new or empty directory that gets everything the script writes, the corpus
# cache of every command included. As under the runner's `bash -e`, a failing
# command that the script does not test with `||` or `if` ends the script.
set -euo pipefail
[ $# -ge 2 ] || { echo "usage: $0 WORK CLI..."; exit 2; }
mkdir -p "$1"
work=$(cd "$1" && pwd)
shift
cli=("$@")
[ -z "$(ls -A "$work")" ] || { echo "$work is not empty"; exit 2; }
export XDG_CACHE_HOME="$work/xdg"
colordesc() { command "${cli[@]}" "$@"; }
ci=$(dirname "$0")
