# Convenience targets for the STONNE reproduction.

.PHONY: install test bench report examples validate \
	sentinel-smoke lens-smoke \
	sanitize-smoke differential differential-vector differential-sparse \
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

# dual-run perturbation harness: a reference simulation and one with an
# adversarial hash seed + reversed/shuffled submission order must
# produce byte-identical payloads (with per-window conservation checked
# in flight), and the seeded order-dependence mutant must be caught
sanitize-smoke:
	mkdir -p build
	PYTHONPATH=src python -m repro.analysis.sanitize \
		--model squeezenet --arch tpu --num-ms 16 \
		--out build/stonne-sanitize.json
	@PYTHONPATH=src python -m repro.analysis.sanitize \
		--model squeezenet --arch tpu --num-ms 16 \
		--mutant float-order \
		--out /tmp/stonne-sanitize-mutant.json; \
	status=$$?; test $$status -eq 1 \
		|| { echo "seeded mutant not caught (exit $$status)"; exit 1; }
	@echo "sanitize smoke OK (mutant caught)"

# strict typing of the core packages; skips gracefully when mypy is absent
typecheck:
	@PYTHONPATH=src python -c "import mypy" 2>/dev/null \
		&& PYTHONPATH=src python -m mypy \
		|| echo "mypy not installed; skipping typecheck (CI runs it)"

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

# serial vs parallel vs cached execution must be byte-identical; the two
# extra files hold the other cases that start a real pool (real-pool ==
# serial; a pool whose workers are killed is replaced, sized by --jobs)
differential:
	PYTHONPATH=src python -m pytest tests/differential/ \
		tests/unit/test_parallel.py \
		tests/regression/test_pool_recovery.py --jobs 4 -q

# lenses on the timeline (tracer + metrics recorder) vs off, byte for
# byte; one unfold per conv and `time_gemm(repeats=G)` vs their per-group
# forms; tile runs, span runs and sample runs vs one counter write, span
# and sample per tile; the mapper's integer scoring vs the object-based
# candidate loop; one `times=n` DRAM record vs n single ones
differential-vector:
	PYTHONPATH=src python -m pytest \
		tests/differential/test_vector_equivalence.py \
		tests/differential/test_functional_equivalence.py \
		tests/differential/test_tile_tally_equivalence.py \
		tests/differential/test_mapper_oracle.py \
		tests/unit/test_dram.py \
		tests/unit/test_vector_golden.py -q

# the sparse controller has one timing path: its oracle is the payload
# pin taken before the round-plan and round-column refactors, plus the
# suites that hold the array-built plan, the ART proofs (per cluster and
# over a whole round table) and the batched DN entry / one commit per
# GEMM to their slow forms, and a schedule served from the process-wide
# memo to one built afresh (the same pins, run cold and then warm)
differential-sparse:
	PYTHONPATH=src python -m pytest \
		tests/regression/test_sigma_payload_pin.py \
		tests/differential/test_round_plan_equivalence.py \
		tests/differential/test_round_columns_equivalence.py \
		tests/differential/test_art_verifier_equivalence.py \
		tests/differential/test_schedule_memo_equivalence.py -q

# line-coverage gate; skips gracefully when pytest-cov is absent
coverage:
	@PYTHONPATH=src python -c "import pytest_cov" 2>/dev/null \
		&& PYTHONPATH=src python -m pytest -q --cov=repro \
			--cov-report=term --cov-report=xml --cov-fail-under=85 \
		|| echo "pytest-cov not installed; skipping coverage (CI runs it)"

report:
	python -m repro.experiments.report evaluation_report.md

validate:
	stonne validate

# register two Fig. 5 workloads and gate them against the committed baseline
sentinel-smoke:
	rm -rf /tmp/stonne-ci-runs
	PYTHONPATH=src python -m repro.ui.cli model squeezenet --arch tpu \
		--num-ms 256 --registry-dir /tmp/stonne-ci-runs > /dev/null
	PYTHONPATH=src python -m repro.ui.cli model squeezenet --arch maeri \
		--num-ms 256 --bw 128 --registry-dir /tmp/stonne-ci-runs > /dev/null
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
		--metrics /tmp/stonne-metrics-smoke.json --metrics-format json \
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
	PYTHONPATH=src python -c "import pathlib; \
		from repro.observability.telemetry import parse_prometheus; \
		families = parse_prometheus(pathlib.Path( \
			'/tmp/stonne-telemetry-smoke.prom').read_text()); \
		assert 'stonne_stage_seconds' in families, sorted(families); \
		assert 'stonne_pool_tasks_total' in families, sorted(families)"
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
