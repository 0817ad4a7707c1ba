#!/usr/bin/env bash
# Ratchet on panic!/unwrap()/expect()/assert!() in library code.
#
# Counts `panic!(`, `.unwrap()`, `.expect(` and `assert!(` occurrences in
# non-test library source (everything before the first `#[cfg(test)]` in
# each file under crates/*/src and src/; shims/ and integration tests are
# out of scope — test code may panic freely) and fails when any count rises
# above the checked-in baseline. New fallible paths should return typed
# errors (`ArchError`, `SystemError`, ...) instead. `assert!(` counts
# only the bare macro: `assert_eq!`, `assert_ne!` and `debug_assert!`
# are not counted.
#
# When a count legitimately drops, lower the baseline here so the
# ratchet keeps holding the line.
set -euo pipefail
cd "$(dirname "$0")/.."

PANIC_BASELINE=0
UNWRAP_BASELINE=0
EXPECT_BASELINE=21
ASSERT_BASELINE=48

count() {
  # Comment lines are excluded: doctest examples may unwrap().
  local pattern=$1 total=0 n file
  while IFS= read -r file; do
    n=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$file" |
      grep -c -E "$pattern" || true)
    total=$((total + n))
  done < <(find crates/*/src src -name '*.rs' | sort)
  echo "$total"
}

panics=$(count 'panic!\(')
unwraps=$(count '\.unwrap\(\)')
expects=$(count '\.expect\(')
asserts=$(count '(^|[^_[:alnum:]])assert!\(')
status=0

echo "panic! in library code:   $panics (baseline $PANIC_BASELINE)"
echo ".unwrap() in library code: $unwraps (baseline $UNWRAP_BASELINE)"
echo ".expect( in library code: $expects (baseline $EXPECT_BASELINE)"
echo "assert!( in library code: $asserts (baseline $ASSERT_BASELINE)"

if [ "$panics" -gt "$PANIC_BASELINE" ]; then
  echo "error: new panic!() in library code; return a typed error instead" >&2
  status=1
fi
if [ "$unwraps" -gt "$UNWRAP_BASELINE" ]; then
  echo "error: new .unwrap() in library code; propagate the error instead" >&2
  status=1
fi
if [ "$expects" -gt "$EXPECT_BASELINE" ]; then
  echo "error: new .expect() in library code; return a typed error instead" >&2
  status=1
fi
if [ "$asserts" -gt "$ASSERT_BASELINE" ]; then
  echo "error: new assert!() in library code; return a typed error instead" >&2
  status=1
fi
if [ "$panics" -lt "$PANIC_BASELINE" ] || [ "$unwraps" -lt "$UNWRAP_BASELINE" ] ||
  [ "$expects" -lt "$EXPECT_BASELINE" ] || [ "$asserts" -lt "$ASSERT_BASELINE" ]; then
  echo "note: counts dropped below baseline; tighten ci/panic_gate.sh"
fi
exit "$status"
