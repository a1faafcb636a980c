#!/usr/bin/env bash
# benchmark/repeat.sh N [--seed S] [--against OTHER_CHECKOUT] — see repeat.py.
set -euo pipefail
exec python3 "$(dirname "${BASH_SOURCE[0]}")/repeat.py" "$@"
