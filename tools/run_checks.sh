#!/usr/bin/env bash
# Runs the five reconfnet analyzers through reconfnet_check: lint
# (determinism + layering + hygiene), protocheck (protocol conformance),
# hotcheck (hot-path allocations + copies), racecheck (concurrency safety +
# determinism under parallelism) and oraclecheck (t-late adversary
# information flow). Runs each gate, prints one summary table, and exits
# non-zero if any gate found something. Per-analyzer logs and SARIF files
# land in one directory so CI uploads a single artifact; the merged SARIF
# combines all five runs into one SARIF 2.1.0 log.
#
# Usage:
#   tools/run_checks.sh [build-dir]
#
#   build-dir  build tree to take reconfnet_check from (default:
#              auto-detected by tools/bootstrap_tool.sh; bootstrap-compiled
#              when none is configured)
#
# One analyzer over chosen files:
#   reconfnet_check <analyzer> [--sarif FILE] [--stale-suppressions] file...
#
# Environment:
#   CHECKS_DIR    directory for the per-analyzer logs and SARIF files
#                 (default: build/checks)
#   CHECKS_SARIF  also write a merged SARIF 2.1.0 log with all five runs
#                 (needs python3; for the CI code-scanning upload)
#   CHECKS_STALE  "1": print each analyzer's --stale-suppressions report on
#                 stdout after the table (advisory; never affects the exit
#                 status)
#   CXX           compiler for bootstrap builds (default: c++)
set -uo pipefail

repo_root="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

out_dir="${CHECKS_DIR:-build/checks}"
mkdir -p "${out_dir}"
check_bin="$(tools/bootstrap_tool.sh "${1:-}")" || exit 2

analyzers=(lint protocheck hotcheck racecheck oraclecheck)

overall=0
declare -A analyzer_status
for name in "${analyzers[@]}"; do
  log="${out_dir}/${name}.log"
  status=0
  "${check_bin}" "${name}" --root . --sarif "${out_dir}/${name}.sarif" \
    > "${log}" 2>&1 || status=$?
  analyzer_status[${name}]="${status}"
  if [[ "${status}" -ne 0 ]]; then
    overall=1
    echo "--- reconfnet_${name} (exit ${status}) ---" >&2
    cat "${log}" >&2
  fi
done

# Summary table: counts come from each analyzer's own summary line
# ("N files, ... M findings (K suppressed)"), captured in the log.
printf '%-22s %9s %11s %7s\n' "checker" "findings" "suppressed" "status" >&2
for name in "${analyzers[@]}"; do
  summary="$(grep -Eo '[0-9]+ findings \([0-9]+ suppressed\)' \
    "${out_dir}/${name}.log" | tail -1)"
  findings="$(cut -d' ' -f1 <<< "${summary:-? findings}")"
  suppressed="$(grep -Eo '\([0-9]+' <<< "${summary:-(?}" | tr -d '(')"
  case "${analyzer_status[${name}]}" in
    0) label="ok" ;;
    1) label="FINDINGS" ;;
    *) label="ERROR" ;;
  esac
  printf '%-22s %9s %11s %7s\n' "reconfnet_${name}" "${findings:-?}" \
    "${suppressed:-?}" "${label}" >&2
done

if [[ "${CHECKS_STALE:-0}" == "1" ]]; then
  echo >&2
  echo "stale suppressions (advisory):" >&2
  for name in "${analyzers[@]}"; do
    "${check_bin}" "${name}" --root . --stale-suppressions 2> /dev/null \
      || true
  done
fi

if [[ -n "${CHECKS_SARIF:-}" ]]; then
  sarif_logs=()
  for name in "${analyzers[@]}"; do
    sarif="${out_dir}/${name}.sarif"
    [[ -f "${sarif}" ]] && sarif_logs+=("${sarif}")
  done
  python3 - "${CHECKS_SARIF}" "${sarif_logs[@]}" <<'EOF'
import json
import sys

out_path, inputs = sys.argv[1], sys.argv[2:]
merged = None
for path in inputs:
    with open(path) as f:
        log = json.load(f)
    if merged is None:
        merged = {k: v for k, v in log.items() if k != "runs"}
        merged["runs"] = []
    merged["runs"].extend(log["runs"])
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"merged {len(inputs)} SARIF logs into {out_path}", file=sys.stderr)
EOF
fi

exit "${overall}"
