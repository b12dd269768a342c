# Convenience targets for the reproduction repo.
#
#   make test        tier-1 test suite, every marker included (one
#                    subsystem's tests: pytest -m <marker>, see
#                    pyproject.toml)
#   make paper       the paper's tables and figures: every claims-bearing
#                    grid (repro sweep paper) through one runner and the
#                    .sweep-cache result cache, claims checked, every
#                    grid's rows written to .sweep-cache/paper-rows.json
#                    — see EXPERIMENTS.md
#   make perf WORKLOAD=<name>  one perfbench workload (BENCHMARK.json)
#                    exactly as the PR gate runs it: seed 1, 15 s, timed
#                    (tracing off) — see perfbench/README.md
#   make perf-selftest  the benchmark's own self-test (tier-1 does not
#                    collect perfbench/)
#   make perf-record LABEL=<label>  run all five workloads and append
#                    their per-workload medians as one line of
#                    BENCH_trend.jsonl (tools/perf_record.py)
#   make trace-demo  quickstart with tracing on, JSONL validated against
#                    the schema in docs/OBSERVABILITY.md
#   make sweep-demo  8-point grid over 2 workers, rerun warm from the
#                    result cache, progress trace validated
#   make docs-check  executable-documentation gate: run every fenced
#                    python block in docs/*.md and assert the event
#                    table / controller registry stay in sync with the
#                    code (tools/docs_check.py)
#   make rt-test     real-network backend tests only (pytest -m realnet):
#                    loopback-UDP transfers, handover on real sockets,
#                    the sim-vs-real claim — see docs/REALNET.md
#   make point-demo  `repro point` end to end: the scripted WiFi→3G
#                    handover (§5 mobility) and the loopback-UDP transfer,
#                    each traced under the invariant monitor and
#                    validated against the schema; the same handover
#                    point on the rt tier (--param tier=rt, real
#                    sockets); its windows and goodputs as a CSV series
#                    (--series -); then the rt_loopback grid's
#                    sim-vs-real claim — see docs/PATH_MANAGEMENT.md,
#                    docs/REALNET.md, docs/OBSERVABILITY.md

PYTHON    ?= python
PP        := PYTHONPATH=src
NCPU      := $(shell $(PYTHON) -c "import os; print(os.cpu_count() or 1)")
TRACE_OUT ?= quickstart-trace.jsonl
HANDOVER_OUT ?= handover-trace.jsonl
RT_OUT    ?= rt-trace.jsonl
SWEEP_CACHE ?= .sweep-demo-cache
WORKLOAD  ?= zoo_checked
PERF_OUT  := .perfbench-record

.PHONY: test paper perf perf-selftest perf-record \
	trace-demo sweep-demo \
	point-demo docs-check rt-test

test:
	$(PP) $(PYTHON) -m pytest -x -q

paper:
	$(PP) $(PYTHON) -m repro sweep paper --parallel $(NCPU) --cache-dir .sweep-cache \
		--out .sweep-cache/paper-rows.json

perf:
	python3 -m perfbench --workload $(WORKLOAD) --seed 1 --seconds 15 --trace 0

perf-selftest:
	$(PYTHON) -m pytest perfbench -q

perf-record:
	@test -n "$(LABEL)" || { echo "usage: make perf-record LABEL=pr16"; exit 2; }
	rm -rf $(PERF_OUT)
	python3 -m perfbench --out $(PERF_OUT)
	$(PYTHON) tools/perf_record.py $(LABEL) $(PERF_OUT)

trace-demo:
	$(PP) $(PYTHON) examples/quickstart.py --trace $(TRACE_OUT)
	$(PP) $(PYTHON) -m repro trace-validate $(TRACE_OUT)

sweep-demo:
	rm -rf $(SWEEP_CACHE)
	$(PP) $(PYTHON) -m repro sweep demo_rtt --parallel 2 \
		--cache-dir $(SWEEP_CACHE) --trace sweep-demo-trace.jsonl
	$(PP) $(PYTHON) -m repro sweep demo_rtt --parallel 2 \
		--cache-dir $(SWEEP_CACHE) --trace sweep-demo-trace.jsonl
	$(PP) $(PYTHON) -m repro trace-validate sweep-demo-trace.jsonl

docs-check:
	$(PP) $(PYTHON) tools/docs_check.py

rt-test:
	$(PP) $(PYTHON) -m pytest -m realnet -q

point-demo:
	$(PP) $(PYTHON) -m repro point wifi_3g_handover --trace $(HANDOVER_OUT)
	$(PP) $(PYTHON) -m repro trace-validate $(HANDOVER_OUT)
	$(PP) $(PYTHON) -m repro point rt_loopback --trace $(RT_OUT)
	$(PP) $(PYTHON) -m repro trace-validate $(RT_OUT)
	$(PP) $(PYTHON) -m repro point wifi_3g_handover --param tier=rt --warmup 0.5 --duration 4.5
	$(PP) $(PYTHON) -m repro point wifi_3g_handover --warmup 1 --duration 3 --series -
	$(PP) $(PYTHON) -m repro sweep rt_loopback --no-cache
