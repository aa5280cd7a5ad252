# Convenience targets for the STONNE reproduction.

.PHONY: install test bench report examples validate \
	sentinel-smoke lens-smoke perf-smoke report-smoke \
	differential differential-vector differential-sparse \
	differential-clock mutants \
	coverage \
	lint typecheck all clean

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest tests/

# the in-repo static-analysis passes (see docs/STATIC_ANALYSIS.md);
# ratchets against the committed baseline and writes the JSON report
# that CI uploads as an artifact
lint:
	mkdir -p build
	PYTHONPATH=src python -m repro.analysis.lint src/repro \
		--baseline tests/regression/lint_baseline.json \
		--format json --output build/stonne-lint.json > /dev/null
	PYTHONPATH=src python -m repro.analysis.lint src/repro

# one seeded production mutant per check the repo keeps or retired (the
# clock property, the SNAPEA scan oracle, each lint pass, the retired
# sanitizer), each applied to a temporary copy of src/ and tests/: its
# named test must fail under it (~2 min; see docs/STATIC_ANALYSIS.md)
mutants:
	python tests/oracles/mutants.py

# strict typing of the core packages; skips gracefully when mypy is absent
typecheck:
	@PYTHONPATH=src python -c "import mypy" 2>/dev/null \
		&& PYTHONPATH=src python -m mypy \
		|| echo "mypy not installed; skipping typecheck (CI runs it)"

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

# serial vs runner vs cached execution must be byte-identical (the
# runner at jobs=1 and jobs=2; test_parallel.py unit-tests the runner and
# the cache). tests/differential/ also holds SNAPEA's in-place
# termination scan against the per-filter scan it replaced
# (test_snapea_scan_oracle.py)
# and a traced run's fold of repeated layers against timing every layer,
# serial and at jobs=1|2, its exported trace bytes included
# (test_trace_fold.py)
differential:
	PYTHONPATH=src python -m pytest tests/differential/ \
		tests/unit/test_parallel.py -q

# lenses on the timeline (tracer + metrics recorder) vs off, byte for
# byte; one unfold per conv and `time_gemm(repeats=G)` vs their per-group
# forms; tile runs, span runs and sample runs vs one counter write, span
# and sample per tile; a traced grouped GEMM's one-pass accounting vs
# its per-group loop; the mapper's integer scoring vs the object-based
# candidate loop; one `times=n` DRAM record vs n single ones
differential-vector:
	PYTHONPATH=src python -m pytest \
		tests/differential/test_vector_equivalence.py \
		tests/differential/test_functional_equivalence.py \
		tests/differential/test_tile_tally_equivalence.py \
		tests/differential/test_traced_group_accounting.py \
		tests/differential/test_mapper_oracle.py \
		tests/unit/test_dram.py \
		tests/unit/test_vector_golden.py -q

# the sparse controller has one timing path: its oracle is the payload
# pin taken before the round-plan and round-column refactors, plus the
# suites that hold the array-built plan, the ART proofs (per cluster and
# over a whole round table) and the batched DN entry / one commit per
# GEMM to their slow forms, a schedule served from the process-wide
# memo to one built afresh (the same pins, run cold and then warm), and
# the preallocated round columns, in-place DN schedule, two-write
# cluster charge and `time_spmm` (no per-round records) to the bodies
# they replaced
differential-sparse:
	PYTHONPATH=src python -m pytest \
		tests/regression/test_sigma_payload_pin.py \
		tests/differential/test_round_plan_equivalence.py \
		tests/differential/test_round_columns_equivalence.py \
		tests/differential/test_art_verifier_equivalence.py \
		tests/differential/test_schedule_memo_equivalence.py \
		tests/differential/test_sparse_timing_oracle.py -q

# production's closed-form timing (dense controller, sparse controller,
# systolic engine) held against the one-clock-at-a-time reference loop of
# tests/oracles/clock.py: on generated layers of all three fabrics the
# cycles, every counter and the DN slots left queued must be equal (a
# folded MAERI layer step by step, SIGMA rounds column by column, the OS
# and WS array register by register); plus the older per-clock checks it
# absorbed (DN queue, microsim cases, FIFO semantics, systolic tiles).
# `make mutants` checks that six seeded production mutants each fail it
# (and the rest of tests/oracles/mutants.py, the tests they name)
differential-clock:
	PYTHONPATH=src python -m pytest \
		tests/property/test_prop_clock.py \
		tests/unit/test_cycle_equivalence.py \
		tests/unit/test_microsim.py \
		tests/unit/test_fifo.py \
		tests/unit/test_systolic.py \
		tests/property/test_prop_systolic.py -q

# line-coverage gate; skips gracefully when pytest-cov is absent
coverage:
	@PYTHONPATH=src python -c "import pytest_cov" 2>/dev/null \
		&& PYTHONPATH=src python -m pytest -q --cov=repro \
			--cov-report=term --cov-report=xml --cov-fail-under=85 \
		|| echo "pytest-cov not installed; skipping coverage (CI runs it)"

report:
	python -m repro.experiments.report evaluation_report.md

# every evaluation driver once through the report generator (~4 s), its
# markdown into a temporary file: exits non-zero on any driver error
report-smoke:
	@out=$$(mktemp "$${TMPDIR:-/tmp}/stonne-report-XXXXXX"); \
	PYTHONPATH=src python -m repro.experiments.report "$$out" > /dev/null; \
	status=$$?; rm -f "$$out"; test $$status -eq 0 \
		|| { echo "evaluation report failed (exit $$status)"; exit 1; }
	@echo "report smoke OK (every evaluation driver ran)"

validate:
	stonne validate

# every benchmark workload once at its smoke size: the output, cycle and
# ledger checks of benchmarks/perf/run.py, exit non-zero on any failure
# (a correctness gate, not a timing one)
perf-smoke:
	PYTHONPATH=src python3 benchmarks/perf/run.py --smoke

# register two Fig. 5 workloads and gate them against the committed
# baseline; --stalls records the ledgers the report's timeline colours by
sentinel-smoke:
	rm -rf /tmp/stonne-ci-runs
	PYTHONPATH=src python -m repro.ui.cli model squeezenet --arch tpu \
		--num-ms 256 --stalls --registry-dir /tmp/stonne-ci-runs > /dev/null
	PYTHONPATH=src python -m repro.ui.cli model squeezenet --arch maeri \
		--num-ms 256 --bw 128 --stalls --registry-dir /tmp/stonne-ci-runs \
		> /dev/null
	PYTHONPATH=src python -m repro.observability.insight \
		--registry-dir /tmp/stonne-ci-runs \
		check --baseline tests/regression/baseline_runs.json
	PYTHONPATH=src python -m repro.observability.insight \
		--registry-dir /tmp/stonne-ci-runs \
		report latest -o /tmp/stonne-insight-report.html
	@echo "sentinel smoke OK"

# one model run with the stall and fabric lenses both on, into one
# scratch registry; then `insight explain` re-validates the conservation
# invariant and `insight fabric` the per-level consistency invariant
# (each exits 2 on violation), writing the ledger JSON, fabric JSON and
# report HTML that CI uploads as artifacts from build/lens-smoke/. The
# same invocation then runs again on the now-warm `--cache`: it must
# simulate nothing and its replayed ledgers must give the same explain /
# fabric documents. Then one sparse run — the same lenses on the sparse
# controller's round table — through the same explain / fabric
# assertions. Then the trace lens: the same model traced must export a
# valid Chrome trace with layer and tile spans, and a tiny traced +
# sampled conv has both of its exports validated. Last, the
# host-side lenses: a --telemetry --live --profile model run with stderr
# in a file (so the live renderer degrades to plain lines) must export the
# stage and pool metric families, a model_start..model_end progress
# stream and one --profile row per layer plus the stage line; and a
# sampled hotspot profile must land at least 95 % of its samples on a
# named component
LENS_OUT = build/lens-smoke
LENS_CLI = PYTHONPATH=src python -m repro.ui.cli
LENS_RUN = $(LENS_CLI) model squeezenet \
	--arch tpu --num-ms 16 --stalls --fabric \
	--cache /tmp/stonne-lens-cache --registry-dir /tmp/stonne-lens-runs
LENS_TRACED = $(LENS_CLI) model squeezenet \
	--arch tpu --num-ms 16 --stalls --fabric --no-registry
LENS_SPARSE = $(LENS_CLI) model squeezenet \
	--arch sigma --num-ms 64 --trace /tmp/stonne-lens-sparse-trace.json \
	--stalls --fabric --registry-dir /tmp/stonne-lens-runs
LENS_INSIGHT = PYTHONPATH=src python -m repro.observability.insight \
	--registry-dir /tmp/stonne-lens-runs
LENS_VALIDATE = PYTHONPATH=src python -m repro.observability.validate

lens-smoke:
	rm -rf /tmp/stonne-lens-runs /tmp/stonne-lens-cache $(LENS_OUT)
	mkdir -p $(LENS_OUT)
	$(LENS_RUN) > /dev/null
	$(LENS_INSIGHT) explain latest
	$(LENS_INSIGHT) explain latest --format json \
		-o $(LENS_OUT)/stonne-explain.json
	PYTHONPATH=src python -c "import json; \
		d = json.load(open('$(LENS_OUT)/stonne-explain.json')); \
		assert d['conservation']['ok'], d['conservation']; \
		assert sum(d['buckets'].values()) == d['total_cycles'], d; \
		assert d['coverage'] == 1.0, d['coverage']"
	$(LENS_INSIGHT) fabric latest
	$(LENS_INSIGHT) fabric latest --format json \
		-o $(LENS_OUT)/stonne-fabric.json
	$(LENS_INSIGHT) report latest -o $(LENS_OUT)/stonne-fabric-report.html
	PYTHONPATH=src python -c "import json; \
		d = json.load(open('$(LENS_OUT)/stonne-fabric.json')); \
		assert d['consistency']['ok'], d['consistency']; \
		assert d['fabric']['tiers'], 'no fabric tier charged'; \
		assert d['hottest_links'], 'no per-link detail'; \
		assert d['coverage'] > 0.9, d['coverage']; \
		html = open('$(LENS_OUT)/stonne-fabric-report.html').read(); \
		assert 'Fabric observatory' in html"
	$(LENS_RUN) 2>&1 > /dev/null | grep -Eq "run: ([0-9]+) layers, 0 simulated, \1 cache hits" \
		|| { echo "attributed warm run re-simulated layers"; exit 1; }
	$(LENS_INSIGHT) explain latest --format json \
		-o /tmp/stonne-explain-warm.json
	$(LENS_INSIGHT) fabric latest --format json \
		-o /tmp/stonne-fabric-warm.json
	PYTHONPATH=src python -c "import json; \
		load = lambda p: {k: v for k, v in json.load(open(p)).items() \
			if k != 'run_id'}; \
		cold, warm = load('$(LENS_OUT)/stonne-explain.json'), \
			load('/tmp/stonne-explain-warm.json'); \
		assert warm['conservation']['ok'] and warm == cold, 'explain'; \
		cold, warm = load('$(LENS_OUT)/stonne-fabric.json'), \
			load('/tmp/stonne-fabric-warm.json'); \
		assert warm['consistency']['ok'] and warm == cold, 'fabric'"
	$(LENS_SPARSE) > /dev/null
	$(LENS_INSIGHT) explain latest --format json \
		-o $(LENS_OUT)/stonne-explain-sparse.json
	$(LENS_INSIGHT) fabric latest --format json \
		-o $(LENS_OUT)/stonne-fabric-sparse.json
	PYTHONPATH=src python -c "import json; \
		d = json.load(open('$(LENS_OUT)/stonne-explain-sparse.json')); \
		assert d['conservation']['ok'], d['conservation']; \
		assert sum(d['buckets'].values()) == d['total_cycles'], d; \
		assert d['coverage'] == 1.0, d['coverage']; \
		d = json.load(open('$(LENS_OUT)/stonne-fabric-sparse.json')); \
		assert d['consistency']['ok'], d['consistency']; \
		assert set(d['fabric']['tiers']) == {'dn', 'mn', 'rn'}, d['fabric']; \
		assert d['fabric']['fifos'], 'no FIFO window recorded'; \
		assert d['coverage'] > 0.9, d['coverage']"
	$(LENS_VALIDATE) /tmp/stonne-lens-sparse-trace.json \
		--expect "layer:" --expect "round[" --expect "DN:stream"
	$(LENS_TRACED) --trace /tmp/stonne-lens-trace.json > /dev/null
	$(LENS_VALIDATE) /tmp/stonne-lens-trace.json \
		--expect "layer:" --expect "PE:tile"
	$(LENS_CLI) conv -R 3 -S 3 -C 4 -K 4 \
		-X 6 -Y 6 --arch maeri --num-ms 16 --bw 8 \
		--trace /tmp/stonne-trace-smoke.json --metrics-every 16 \
		--metrics /tmp/stonne-metrics-smoke.json \
		--no-registry
	$(LENS_VALIDATE) /tmp/stonne-trace-smoke.json \
		--expect "layer:" --expect "DN:" --expect "MN:" --expect "RN:"
	$(LENS_VALIDATE) /tmp/stonne-metrics-smoke.json \
		--expect gb_reads --expect mn_multiplications
	$(LENS_CLI) model squeezenet --arch tpu --num-ms 16 \
		--live --telemetry --profile \
		--telemetry-out /tmp/stonne-telemetry-smoke.prom \
		--progress-jsonl /tmp/stonne-progress-smoke.jsonl \
		--no-registry 2> $(LENS_OUT)/stonne-profile.txt > /dev/null
	cat $(LENS_OUT)/stonne-profile.txt
	grep -qx '# TYPE stonne_stage_seconds histogram' \
		/tmp/stonne-telemetry-smoke.prom
	grep -qx '# TYPE stonne_pool_tasks_total counter' \
		/tmp/stonne-telemetry-smoke.prom
	PYTHONPATH=src python -c "import json, pathlib; \
		events = [json.loads(l) for l in pathlib.Path( \
			'/tmp/stonne-progress-smoke.jsonl').read_text().splitlines()]; \
		assert events[0]['event'] == 'model_start'; \
		assert events[-1]['event'] == 'model_end', events[-1]"
	PYTHONPATH=src python -c "import pathlib, re; \
		err = pathlib.Path('$(LENS_OUT)/stonne-profile.txt').read_text(); \
		layers = int(re.search(r'run: (\d+) layers', err).group(1)); \
		rows = re.findall(r'^\d+-\S+ +\w+ +\d+ +' \
			r'(?:[\d.]+ +simulated|- +deduplicated)$$', err, re.M); \
		assert layers and len(rows) == layers, (layers, rows); \
		assert re.search(r'^total .* ms wall clock$$', err, re.M), err; \
		assert re.search(r'^stages: record .*, simulate .*, merge ', \
			err, re.M), err"
	PYTHONPATH=src python -m repro.observability.insight hotspots \
		--model squeezenet --arch tpu --num-ms 16 --repeat 5 \
		--format json -o $(LENS_OUT)/stonne-hotspots.json
	python -c "import json; \
		d = json.load(open('$(LENS_OUT)/stonne-hotspots.json')); \
		assert d['top_component'] is not None, d; \
		assert d['attributed_fraction'] >= 0.95, d"
	@echo "lens smoke OK (warm attributed rerun: 0 simulated, same ledgers;" \
		"sparse run conserved and consistent; traces valid; one" \
		"--profile row per layer; hotspots attributed)"

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran"

all: install test bench

clean:
	rm -rf build src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
