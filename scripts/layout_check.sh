#!/bin/sh
# Prints hsd.(*Analyzer).Stage - route.(*Compiled).SplitPath modulo 0x800
# in the linked ./bench binary and fails at 0x760: on the reference CPU
# the two hot loops' branches alias at that distance and hsd-sweep1944
# reads ~35 % slower with no code change (docs/PERFORMANCE.md, "A layout
# hazard"). Run before measuring any change that adds code ahead of
# internal/hsd in link order.
set -eu
GO=${GO:-go}
bin=$(mktemp)
trap 'rm -f "$bin"' EXIT
$GO build -o "$bin" ./bench
syms=$($GO tool nm "$bin")
addr() { printf '%s\n' "$syms" | awk -v s="$1" '$3 == s { print $1 }'; }
stage=$(addr 'fattree/internal/hsd.(*Analyzer).Stage')
split=$(addr 'fattree/internal/route.(*Compiled).SplitPath')
[ -n "$stage" ] && [ -n "$split" ] || { echo "layout-check: symbols not found in ./bench" >&2; exit 2; }
d=$(( (0x$stage - 0x$split) & 0x7ff ))
printf 'layout-check: Stage 0x%s - SplitPath 0x%s = 0x%x (mod 0x800)\n' "$stage" "$split" "$d"
if [ "$d" -eq $((0x760)) ]; then
	echo "layout-check: 0x760 is the branch-aliasing layout; pad or reorder before trusting hsd-sweep1944" >&2
	exit 1
fi
