# Convenience targets for the P3 reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-perf test-live test-tenancy coverage bench bench-e2e perf-smoke live-demo report quick-report figures clean

export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e .[dev]

test:
	$(PYTHON) -m pytest tests/ -x -q

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -p no:randomly -m "not slow"

# Perf-path correctness: golden-trace identity of the engine's run loop
# and its debug wrapper, and the warm-start fallback battery (run by
# the blocking CI perf-smoke job)
test-perf:
	$(PYTHON) -m pytest tests/ -x -q -m perf

# The live-cluster battery: async transport, the conformance property
# (test_aio_cluster.py::test_random_live_clusters_match_reference: drawn
# flat and two-tier clusters against run_inprocess) and its lossy twin
# (::test_random_scenarios_match_reference_over_a_lossy_link), fail-fast
# and teardown (CI runs this as its own job)
test-live:
	$(PYTHON) -m pytest tests/live/test_aio_transport.py \
	    tests/live/test_aio_cluster.py tests/live/test_wait.py -x -q

# The multi-tenant battery: fairness/starvation properties, tenant
# isolation (bit-identity) and cross-substrate scheduler conformance
# (run by the blocking CI tenancy job)
test-tenancy:
	$(PYTHON) -m pytest tests/tenancy/ -x -q -m tenancy
	$(PYTHON) -m pytest tests/live/test_transport.py \
	    tests/live/test_aio_transport.py -x -q

# stdlib-only coverage measurement (CI enforces the floor via pytest-cov)
coverage:
	$(PYTHON) tools/measure_coverage.py --json coverage.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md):
# seven workloads, three fresh-interpreter runs each
bench-e2e:
	python3 -m bench

# The benchmark's own tests, then the paper's headline sweep once, the
# observed run at test size (the one workload that checks observed
# == unobserved, the exporters and the schema validator), the live
# cluster at test size (final parameters bit-identical to the in-process
# oracle, 0 failed operations), the shaped live run at test size (p3
# and the baseline over a rate-limited link, each against the same
# oracle), the multi-tenant run at test size
# (the one workload that retunes link rates mid-run), and the scale
# ladder and warm-start sweep at test size (the two-tier aggregator and
# the warm-start verifier on the simulator's message path), then the
# user-facing `repro run --trace` export, parsed strictly (no bare NaN)
# with one instant per recorded event, then the user-facing `repro live`
# (p3 and the baseline over a shaped link, 5-frame messages; exits
# nonzero when the live run is not bit-identical to the in-process
# store): fails on a wrong output ("correct": false), never on timing —
# shared runners are too noisy for a wall-clock floor
perf-smoke:
	python3 -m pytest bench/ -q
	python3 -m bench --workload fig7_sweep --seconds 12 --trace 0 \
	    | tee /dev/stderr | tail -n 1 | grep -q '"correct": true'
	python3 -m bench --workload obs_traced_sim --scale tiny \
	    | tee /dev/stderr | tail -n 1 | grep -q '"correct": true'
	python3 -m bench --workload aio_live --scale tiny \
	    | tee /dev/stderr | tail -n 1 | grep -q '"correct": true'
	python3 -m bench --workload aio_shaped --scale tiny \
	    | tee /dev/stderr | tail -n 1 | grep -q '"correct": true'
	python3 -m bench --workload tenants8 --scale tiny \
	    | tee /dev/stderr | tail -n 1 | grep -q '"correct": true'
	python3 -m bench --workload scale_ladder --scale tiny \
	    | tee /dev/stderr | tail -n 1 | grep -q '"correct": true'
	python3 -m bench --workload warm_cached_sweep --scale tiny \
	    | tee /dev/stderr | tail -n 1 | grep -q '"correct": true'
	python3 -m repro run --model toy3 --trace trace.json --metrics metrics.json
	python3 tools/check_trace.py trace.json metrics.json
	python3 -m repro live --workers 2 --shards 1 --iterations 3 --warmup 1

live-demo:
	$(PYTHON) examples/live_cluster.py

report:
	$(PYTHON) -m repro report --out report.md

quick-report:
	$(PYTHON) -m repro report --quick --out report.md

figures:
	$(PYTHON) -m repro.cli summary

clean:
	rm -rf results report.md trace.json metrics.json .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
