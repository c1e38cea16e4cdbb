# js-ceres — OCaml reproduction of "Are web applications ready for
# parallelism?" (PPoPP 2015)

.PHONY: all build test check clean

all: build

build:
	dune build @all

# Every behavioural check — unit tests, the golden diffs of
# test/golden/dune, the CLI smokes, the socket stress rounds and the
# examples — runs under `dune runtest`; `dune promote` accepts an
# intentional golden change.
test:
	dune runtest

# Everything built, then Tier-1. Performance is gated by perfbench
# (BENCHMARK.json), which compares a change against its parent on every
# PR; run one workload by hand with `python3 perfbench/run.py --workload
# W` (exec, analysis or serve).
check:
	dune build @all
	dune runtest

clean:
	dune clean
