#!/bin/sh
# Malformed or out-of-range flag values must exit 2 with a message naming the
# flag before any simulation starts - never abort inside the simulator
# (an EPC of 0 MiB used to die on a CHECK with rc 134).
#
# usage: cli_flags_test.sh RUN_WORKLOAD TRACE_TOOL SWEEP_TOOL FIG15_FARM FIG16_RESILIENCE
set -u
run_workload=$1
trace_tool=$2
sweep_tool=$3
fig15=$4
fig16=$5
failed=0

# expect_exit2 PATTERN CMD...: CMD must exit 2 and print PATTERN on stderr.
expect_exit2() {
  pattern=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: exit $rc, want 2: $*"
    failed=1
  elif ! printf '%s' "$err" | grep -qF -- "$pattern"; then
    echo "FAIL: stderr lacks '$pattern': $*"
    echo "  stderr: $err"
    failed=1
  else
    echo "ok: $*"
  fi
}

# Run where a stray output file could not land in the source tree.
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
cd "$tmp" || exit 1

expect_exit2 "flag --epc_mb" "$run_workload" --workload=kmeans --size=XS --epc_mb=0
expect_exit2 "flag --epc_mib" "$trace_tool" record --workload=kmeans --size=XS --epc_mib=0
expect_exit2 "flag --epc_min_mib" "$sweep_tool" --size=XS --epc_min_mib=0 --epc_points=1
expect_exit2 "flag --epc_max_mib" "$sweep_tool" --size=XS --epc_max_mib=0
expect_exit2 "--epc_max_mib (8) must be >= --epc_min_mib (16)" \
  "$sweep_tool" --size=XS --epc_min_mib=16 --epc_max_mib=8
expect_exit2 "flag --epc_points" "$sweep_tool" --size=XS --epc_points=0
expect_exit2 "flag --workloads" "$sweep_tool" --size=XS --workloads=kmeans,,matrixmul
expect_exit2 "flag --traces" "$sweep_tool" --traces=a.sgxtrace,
expect_exit2 "empty item" "$run_workload" --workload=kmeans --size=XS --opts=safe,,hoist
expect_exit2 "--apps:" "$fig15" --apps=kvstore,,httpd
expect_exit2 "--apps:" "$fig15" --apps=
expect_exit2 "--recoveries:" "$fig16" --recoveries=failstop,

exit $failed
