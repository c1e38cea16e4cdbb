# js-ceres — OCaml reproduction of "Are web applications ready for
# parallelism?" (PPoPP 2015)

.PHONY: all build test check serve-stress-smoke clean

all: build

build:
	dune build @all

# Every behavioural check — unit tests, the golden diffs of
# test/golden/dune, the CLI smokes and the examples — runs under
# `dune runtest`; `dune promote` accepts an intentional golden change.
test:
	dune runtest

# Tier-1 plus the one gate that cannot live in it: the socket stress
# round. Performance is gated by perfbench (BENCHMARK.json), which
# compares a change against its parent on every PR; run one workload
# by hand with `python3 perfbench/run.py --workload W` (exec, analysis
# or serve).
check:
	dune build @all
	dune runtest
	$(MAKE) serve-stress-smoke

# Server stress smoke (socket and signal handling, so outside Tier-1):
# a loadgen burst above a tiny admission gate must shed (> 0) with zero
# dropped well-behaved exchanges, and SIGTERM must drain to exit 0 and
# unlink the socket. A second round adds server-side transport faults
# and misbehaving clients under a chaos seed: well-behaved requests
# must still complete (ok > 0) and the drain must still exit 0. The
# built binary is invoked directly: two concurrent `dune exec`
# processes would deadlock on dune's build lock.
JSCERES_BIN = _build/default/bin/jsceres.exe

serve-stress-smoke: build
	@sock=_build/serve-stress.sock; out=_build/serve-stress.json; \
	rm -f $$sock; \
	$(JSCERES_BIN) serve --socket $$sock -j 2 --max-inflight 1 \
	  --queue-capacity 0 --deadline-ms 60000 & pid=$$!; \
	i=0; while [ ! -S $$sock ] && [ $$i -lt 100 ]; do sleep 0.05; i=$$((i+1)); done; \
	test -S $$sock || { echo "serve-stress-smoke: server never bound"; kill $$pid 2>/dev/null; exit 1; }; \
	$(JSCERES_BIN) loadgen --socket $$sock -c 8 -n 40 > $$out || \
	  { echo "serve-stress-smoke: loadgen reported dropped connections"; \
	    cat $$out; kill $$pid 2>/dev/null; exit 1; }; \
	shed=$$(grep -o '"shed":[0-9]*' $$out | cut -d: -f2); \
	dropped=$$(grep -o '"dropped_connections":[0-9]*' $$out | cut -d: -f2); \
	test "$$shed" -gt 0 || \
	  { echo "serve-stress-smoke: burst above --max-inflight shed nothing"; \
	    cat $$out; kill $$pid 2>/dev/null; exit 1; }; \
	test "$$dropped" -eq 0 || \
	  { echo "serve-stress-smoke: $$dropped uncleanly dropped connection(s)"; \
	    kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid; rc=$$?; \
	test $$rc -eq 0 || { echo "serve-stress-smoke: drain exited $$rc"; exit 1; }; \
	test ! -S $$sock || { echo "serve-stress-smoke: socket not unlinked"; exit 1; }; \
	echo "serve-stress smoke OK (shed: $$shed, dropped: 0, drain exit: 0)"; \
	sock=_build/serve-stress-chaos.sock; out=_build/serve-stress-chaos.json; \
	rm -f $$sock; \
	$(JSCERES_BIN) serve --socket $$sock -j 2 --max-inflight 2 \
	  --queue-capacity 2 --deadline-ms 60000 --chaos-seed 7 \
	  --chaos-transport & pid=$$!; \
	i=0; while [ ! -S $$sock ] && [ $$i -lt 100 ]; do sleep 0.05; i=$$((i+1)); done; \
	test -S $$sock || { echo "serve-stress-smoke: chaos server never bound"; kill $$pid 2>/dev/null; exit 1; }; \
	$(JSCERES_BIN) loadgen --socket $$sock -c 4 -n 25 -s 7 --chaos-clients \
	  > $$out || true; \
	ok=$$(grep -o '"ok":[0-9]*' $$out | head -1 | cut -d: -f2); \
	test -n "$$ok" -a "$$ok" -gt 0 2>/dev/null || \
	  { echo "serve-stress-smoke: no request survived the chaos round"; \
	    cat $$out; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid; rc=$$?; \
	test $$rc -eq 0 || { echo "serve-stress-smoke: chaos drain exited $$rc"; exit 1; }; \
	echo "serve-stress smoke OK under chaos (ok: $$ok, drain exit: 0)"

clean:
	dune clean
