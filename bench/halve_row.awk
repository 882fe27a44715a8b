# Halves one row's packets/sec median and quartiles in a bench document
# laid out one workload per line, as the committed BENCH_<pr>.json is:
#
#   awk -v row=NAME -f halve_row.awk BENCH_<pr>.json > halved.json
#
# `@bench-json` feeds the result to check_bench, which must reject it.
# Exits 2 when the row or one of its three figures is missing.
index($0, "\"" row "\":") {
  split("median q1 q3", stats, " ")
  for (i = 1; i <= 3; i++) {
    if (!match($0, "\"" stats[i] "\": *[0-9.e+]+")) exit 2
    field = substr($0, RSTART, RLENGTH)
    value = substr(field, index(field, ":") + 1) / 2
    $0 = substr($0, 1, RSTART - 1) "\"" stats[i] "\": " value substr($0, RSTART + RLENGTH)
  }
  halved = 1
}
{ print }
END { if (!halved) exit 2 }
