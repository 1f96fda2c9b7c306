#!/usr/bin/env bash
# Resolves the reconfnet_check binary, the one front end of the five
# zero-dependency analyzers (lint, protocheck, hotcheck, racecheck,
# oraclecheck). Prefers a configured build tree, building the target there
# first if it is missing; otherwise compiles textscan, the five analyzers and
# the front end directly with ${CXX:-c++}, so the gates run everywhere,
# including toolchain-only containers with no build tree.
#
# Prints the binary path, relative to the repository root, on stdout; all
# diagnostics go to stderr.
#
# Usage:
#   tools/bootstrap_tool.sh [BUILD_DIR]
#
#   BUILD_DIR  configured build tree, relative to the repository root
#              (default: first existing of build/default, build, build/tidy;
#              bootstrap-compiled into build/reconfnet_check-bootstrap/ when
#              none is configured)
#
# Environment:
#   CXX        compiler for the bootstrap build (default: c++)
set -euo pipefail

repo_root="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

build_dir="${1:-}"
if [[ -z "${build_dir}" ]]; then
  for candidate in build/default build build/tidy; do
    if [[ -f "${candidate}/CMakeCache.txt" ]]; then
      build_dir="${candidate}"
      break
    fi
  done
fi

if [[ -n "${build_dir}" && -f "${build_dir}/CMakeCache.txt" ]]; then
  bin="${build_dir}/tools/reconfnet_check"
  if [[ ! -x "${bin}" ]]; then
    echo "bootstrap_tool: building reconfnet_check in ${build_dir}" >&2
    # A stale tree configured before the target existed has no such target;
    # fall through to the bootstrap compile instead of failing.
    cmake --build "${build_dir}" --target reconfnet_check -- -j "$(nproc)" \
      > /dev/null 2>&1 || true
  fi
  if [[ -x "${bin}" ]]; then
    echo "${bin}"
    exit 0
  fi
  echo "bootstrap_tool: ${build_dir} has no reconfnet_check; bootstrapping" >&2
fi

sources=(tools/lint/textscan.cpp tools/reconfnet_check.cpp)
deps=(tools/lint/textscan.hpp)
for analyzer in lint protocheck hotcheck racecheck oraclecheck; do
  sources+=("tools/${analyzer}/${analyzer}.cpp")
  deps+=("tools/${analyzer}/${analyzer}.hpp")
done

bin="build/reconfnet_check-bootstrap/reconfnet_check"
stale=0
if [[ ! -x "${bin}" ]]; then
  stale=1
else
  for dep in "${sources[@]}" "${deps[@]}"; do
    if [[ "${dep}" -nt "${bin}" ]]; then
      stale=1
      break
    fi
  done
fi
if [[ "${stale}" -eq 1 ]]; then
  echo "bootstrap_tool: compiling ${bin}" >&2
  mkdir -p "$(dirname "${bin}")"
  "${CXX:-c++}" -std=c++20 -O1 "${sources[@]}" -o "${bin}"
fi
echo "${bin}"
