#!/usr/bin/env bash
# Converts `go test -bench` output into a JSON array with one object per
# benchmark result line. Every reported metric becomes a key named after
# its unit: "ns/op" -> ns_per_op, "B/op" -> bytes_per_op, "req/s" ->
# req_per_s, "p99_ns" -> p99_ns. A "/" in a benchmark name becomes "_".
#
#   go test -run '^$' -bench . -benchmem ./internal/core/ | tee bench.txt
#   bash .github/scripts/bench2json.sh bench.txt > BENCH_core.json
set -euo pipefail
exec awk '
function key(unit) {
	if (unit == "B/op") return "bytes_per_op"
	unit = tolower(unit)
	gsub(/\//, "_per_", unit)
	gsub(/[^a-z0-9_]/, "_", unit)
	return unit
}
BEGIN { printf("[") }
/^Benchmark/ && $2 ~ /^[0-9]+$/ {
	name = $1
	gsub(/\//, "_", name)
	printf("%s{\"name\":\"%s\"", sep, name)
	for (i = 3; i < NF; i += 2) printf(",\"%s\":%s", key($(i + 1)), $i)
	printf("}")
	sep = ","
}
END { print "]" }
' "$@"
