#!/usr/bin/env bash
# On the seed-3 synthetic corpus: same-seed checkpoints are byte-identical
# across processes and CPU counts, and eval scores, hits and draws do not
# depend on the CPUs a run may use or on the order of a split's rows.
#   bash ci/determinism.sh WORK CLI...    (see ci/common.bash)
. "$(dirname "$0")/common.bash"
python "$ci/../perfbench/synth.py" --seed 3 --out "$work/c"

# one process per string-hash seed, so nothing in the checkpoint may depend
# on set or dict iteration order of strings; the init-state bucket model
# trains the gradient into the initial state and the bucket-table rows
train() {
  colordesc train --data "$work/c/manifest.txt" --subsample-train 2000 --epochs 1 \
    --seed 4 "$@" > /dev/null
}
for model in "sequence sequence fourier every-step" \
             "sequence-init sequence buckets init-state" \
             "atomic atomic buckets every-step" "histogram histogram buckets every-step"; do
  read -r name family features conditioning <<< "$model"
  for hashseed in 1 2; do
    PYTHONHASHSEED=$hashseed train --family "$family" --features "$features" \
      --conditioning "$conditioning" --out "$work/run-$name-$hashseed"
  done
  cmp "$work/run-$name-1/model.ckpt" "$work/run-$name-2/model.ckpt"
  echo "$family/$features/$conditioning: identical"
done

# the training's dev monitor scores on every usable CPU and keeps the best
# check's parameters, so the CPUs a training may use must not change them;
# the atomic model also trains its bucket tables' rows
for model in "sequence sequence fourier" "atomic atomic buckets"; do
  read -r name family features <<< "$model"
  PYTHONHASHSEED=1 taskset -c 0 "${cli[@]}" train --data "$work/c/manifest.txt" \
    --subsample-train 2000 --epochs 1 --seed 4 --family "$family" --features "$features" \
    --conditioning every-step --out "$work/run-$name-one" > /dev/null
  cmp "$work/run-$name-1/model.ckpt" "$work/run-$name-one/model.ckpt"
  echo "$family/$features/every-step: identical on one CPU and on all"
done

# scoring runs its 512-row chunks on every usable CPU, one thread per chunk;
# the first 1,200 dev rows make calls of two and three chunks. On them every
# family's eval also decodes every row, and the sequence and atomic
# checkpoints sample 1,200 rows: the paths that run on 64-row tiles. The
# report's timestamp differs between runs, so the files are not compared
head -n 1201 "$work/c/dev.csv" > "$work/c/dev-1200.csv"
printf 'space=hsl\ndev=dev-1200.csv\n' > "$work/c/manifest-1200.txt"
for data in manifest manifest-1200; do
  accuracy=--skip-accuracy keys="log2_probs perplexity"
  if [ "$data" = manifest-1200 ]; then accuracy= keys+=" hits"; fi
  for family in sequence atomic histogram; do
    ckpt=$work/run-$family-1/model.ckpt out=$work/eval-$data-$family
    taskset -c 0 "${cli[@]}" eval --ckpt "$ckpt" --data "$work/c/$data.txt" \
      $accuracy --allow-zero --out "$out-one" > /dev/null
    colordesc eval --ckpt "$ckpt" --data "$work/c/$data.txt" \
      $accuracy --allow-zero --out "$out-all" > /dev/null
    python "$ci/same_scores.py" "$out-one" "$out-all" $keys
  done
done
for family in sequence atomic; do
  ckpt=$work/run-$family-1/model.ckpt out=$work/sample-$family
  taskset -c 0 "${cli[@]}" sample --ckpt "$ckpt" --hsv 0,80,60 --n 1200 --seed 5 > "$out-one.txt"
  colordesc sample --ckpt "$ckpt" --hsv 0,80,60 --n 1200 --seed 5 > "$out-all.txt"
  cmp "$out-one.txt" "$out-all.txt"
  echo "$family sample --n 1200: $(wc -l < "$out-all.txt") lines equal on one CPU and on all"
done

# a call's rows are scored longest first, in chunks cut from that order, so
# a shuffled file puts other rows in each chunk; a row's score must not
# depend on where the file puts it
python - "$work/c" <<'PY'
import random, sys
c = sys.argv[1]
header, *rows = open(f"{c}/dev-1200.csv").read().splitlines()
order = list(range(len(rows)))
random.Random(8).shuffle(order)
with open(f"{c}/dev-1200-shuffled.csv", "w") as f:
    f.write("\n".join([header] + [rows[i] for i in order]) + "\n")
with open(f"{c}/shuffle-order.txt", "w") as f:
    f.write("\n".join(map(str, order)) + "\n")
PY
printf 'space=hsl\ndev=dev-1200-shuffled.csv\n' > "$work/c/manifest-1200-shuffled.txt"
for family in sequence atomic histogram; do
  for data in manifest-1200 manifest-1200-shuffled; do
    colordesc eval --ckpt "$work/run-$family-1/model.ckpt" --data "$work/c/$data.txt" \
      --skip-accuracy --allow-zero --out "$work/rows-$data-$family" > /dev/null
  done
  python "$ci/same_scores.py" "$work/rows-manifest-1200-$family" \
    "$work/rows-manifest-1200-shuffled-$family" --order "$work/c/shuffle-order.txt"
done
