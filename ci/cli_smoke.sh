#!/usr/bin/env bash
# Every colordesc subcommand once on the seed-3 synthetic corpus, then the
# usage errors, each of which must exit 2 with one error line.
#   bash ci/cli_smoke.sh WORK CLI...    (see ci/common.bash)
. "$(dirname "$0")/common.bash"
python "$ci/../perfbench/synth.py" --seed 3 --out "$work/c"
data=$work/c/manifest.txt seq=$work/seq/model.ckpt atomic=$work/atomic/model.ckpt

# the config file starts with a UTF-8 byte order mark
printf '\xef\xbb\xbfepochs=2\nbatch-size=64\n' > "$work/train.cfg"
colordesc train --data "$data" --family sequence \
  --config "$work/train.cfg" --subsample-train 2000 --seed 4 --out "$work/seq"
colordesc train --data "$data" --family atomic \
  --features buckets --subsample-train 2000 --epochs 2 --seed 4 --out "$work/atomic"
# the accuracy passes decode the whole dev split in batches
colordesc eval --ckpt "$seq" --data "$data" --out "$work/seq"
colordesc eval --ckpt "$atomic" --data "$data" --allow-zero --out "$work/atomic"
# the loads above parsed each split once and cached the result
ls "$work"/xdg/colordesc/*.npz
# a CRLF copy of dev.csv with a UTF-8 byte order mark, read in many blocks
# by the streaming loader, scores like the LF file, whose load reads the
# cache, and neither skips a record
mkdir -p "$work/crlf"
printf '\xef\xbb\xbf' > "$work/crlf/dev.csv"
sed 's/$/\r/' "$work/c/dev.csv" >> "$work/crlf/dev.csv"
printf 'space=hsl\ndev=dev.csv\n' > "$work/crlf/manifest.txt"
for corpus in c crlf; do
  colordesc eval --ckpt "$seq" --data "$work/$corpus/manifest.txt" \
    --skip-accuracy --allow-zero --out "$work/eval-$corpus"
done
python "$ci/same_scores.py" "$work/eval-c" "$work/eval-crlf" --rows 108545
# new bytes at the same path replace that file's one cache entry: dev.csv
# rewritten in place twice, each time with another extra row
mkdir -p "$work/grow"
printf 'space=hsl\ndev=dev.csv\n' > "$work/grow/manifest.txt"
for extra in '10,50,50,red' '200,50,50,blue'; do
  { cat "$work/c/dev.csv"; echo "$extra"; } > "$work/grow/dev.csv"
  XDG_CACHE_HOME="$work/xdg-grow" colordesc eval --ckpt "$seq" \
    --data "$work/grow/manifest.txt" --skip-accuracy --allow-zero --out "$work/eval-grow"
done
[ "$(ls "$work"/xdg-grow/colordesc/*.npz | wc -l)" -eq 1 ] \
  || { echo "not one cache entry for $work/grow/dev.csv"; exit 1; }
# with the cache cleared, the LF file is parsed again and scores like the
# cached load
rm -r "$work/xdg/colordesc"
colordesc eval --ckpt "$seq" --data "$data" --skip-accuracy --allow-zero --out "$work/eval-cold"
python "$ci/same_scores.py" "$work/eval-cold" "$work/eval-c"
colordesc compare "$work/seq/eval-dev.json" "$work/atomic/eval-dev.json" \
  --rounds 1000 --out "$work/cmp"
colordesc compare "$work/seq/eval-dev.json" "$work/atomic/eval-dev.json" \
  --metric accuracy --rounds 1000
colordesc sample --ckpt "$seq" --hsv 0,80,60 --n 3
colordesc top1 --ckpt "$seq" --hsl 120,70,40
# --hsv wraps the hue as the corpus loader does: 360 is 0
at360=$(colordesc top1 --ckpt "$seq" --hsv 360,80,60)
[ "$at360" = "$(colordesc top1 --ckpt "$seq" --hsv 0,80,60)" ] \
  || { echo "top1 at hue 360 differs from hue 0"; exit 1; }
# the atomic checkpoint samples through the inventory families' sampler
colordesc sample --ckpt "$atomic" --hsv 0,80,60 --n 3
colordesc top1 --ckpt "$atomic" --hsl 120,70,40
# row 0 takes the same uniforms in both calls, and a lone row runs as row 0
# of a zero-padded 64-row tile, as it does among three, so one draw is the
# first line of three
for ckpt in "$seq" "$atomic"; do
  one=$(colordesc sample --ckpt "$ckpt" --hsv 0,80,60 --n 1 --seed 5)
  three=$(colordesc sample --ckpt "$ckpt" --hsv 0,80,60 --n 3 --seed 5)
  [ "$one" = "${three%%$'\n'*}" ] || { echo "$ckpt: '$one' is not the first of: $three"; exit 1; }
done
colordesc denotation --ckpt "$seq" --desc "dark cyan" --grid 24x10x10 --outdir "$work/den"

# each command must exit 2 with exactly one "error:" line on stderr and no
# traceback; --hsv 400,50,50 would not do, as hue wraps
usage_error() {
  # under bash -e a bare failing command would end the script
  rc=0
  "$@" > /dev/null 2> "$work/usage.err" || rc=$?
  cat "$work/usage.err"
  [ "$rc" -eq 2 ] || { echo "exit $rc, expected 2: $*"; exit 1; }
  [ "$(grep -c '^error:' "$work/usage.err")" -eq 1 ] || { echo "not one error line: $*"; exit 1; }
  ! grep -q Traceback "$work/usage.err" || { echo "traceback: $*"; exit 1; }
}
usage_error colordesc top1 --hsv 10,120,50 --ckpt "$seq"
usage_error colordesc top1 --hsl 10,50,101 --ckpt "$seq"
usage_error colordesc top1 --hsv nan,50,50 --ckpt "$seq"
usage_error colordesc top1 --hsv 1,2,3 --hsl 1,2,3 --ckpt "$seq"
usage_error colordesc sample --hsv 1,2,3 --max-len -1 --ckpt "$seq"
# a bad config file: its value, a key set twice, and one option set under
# two spellings of its key; train makes no output directory
printf 'subsample-train=-1\n' > "$work/bad.cfg"
printf 'epochs=2\nepochs=3\n' > "$work/twice.cfg"
printf 'batch-size=64\nbatch_size=8\n' > "$work/spellings.cfg"
for cfg in bad twice spellings; do
  usage_error colordesc train --config "$work/$cfg.cfg" --data "$data" --out "$work/$cfg-run"
  [ ! -e "$work/$cfg-run" ] || { echo "train made its output directory"; exit 1; }
done
# a key set twice in a manifest
printf 'space=hsl\ndev=c/dev.csv\ndev=c/dev.csv\n' > "$work/twice.manifest"
usage_error colordesc eval --ckpt "$seq" --data "$work/twice.manifest" --out "$work/twice-eval"
# an inventory entry with a capital is no key a text can have: the
# rewritten file has a valid checksum and still does not load
python - "$atomic" <<'PY'
import sys
from colordesc.checkpoint import read_checkpoint, write_checkpoint
header, tensors = read_checkpoint(sys.argv[1])
inventory = header["inventory"]
i = next(i for i, s in enumerate(inventory) if s.upper() != s)
inventory[i] = inventory[i].upper()
write_checkpoint(sys.argv[1], header, tensors)
PY
usage_error colordesc top1 --hsv 10,50,50 --ckpt "$atomic"
usage_error colordesc sample --hsv 10,50,50 --ckpt "$atomic"
# an int32 LSTM bias is not the dtype the layout gives it: the rewritten
# file has a valid checksum and still does not load
python - "$seq" <<'PY'
import sys
import numpy as np
from colordesc.checkpoint import read_checkpoint, write_checkpoint
header, tensors = read_checkpoint(sys.argv[1])
tensors["lstm.b"] = tensors["lstm.b"].astype(np.int32)
write_checkpoint(sys.argv[1], header, tensors)
PY
usage_error colordesc top1 --hsv 10,50,50 --ckpt "$seq"
