# LBRM reproduction — developer entry points.  Everything runs from the
# source checkout: the package is on PYTHONPATH, never installed.

.PHONY: test bench examples loc census pairs all

export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Tier-1 (ROADMAP.md; CI runs the same with -m "not network").
test:
	python -m pytest -x -q

# Rewrites benchmarks/results/*.txt; `git checkout -- benchmarks/results/` before committing.
bench:
	python -m pytest benchmarks/ --benchmark-only

examples:
	for ex in examples/*.py; do echo "== $$ex =="; python $$ex; done

# ROADMAP aim 2: net source lines go down.
loc:
	@find src -name '*.py' | xargs wc -l | tail -1

# Who calls what (docs/TRAFFIC.md): every shipped entry point, then tier-1,
# under a profile hook (~3 min); rewrites docs/traffic_census.json, which
# tests/test_traffic_census.py holds to src/ and to tools/census_allowlist.json.
census:
	python tools/traffic_census.py --with-tests --write

# Did this change move performance?  Alternating parent/change pairs of each
# BENCHMARK.json workload (or of W, a comma list) with the choosing-metrics §8
# verdict per end-to-end metric; exit 1 on any worse/refused/unequal sim block:
#   make pairs REF=HEAD [W=exact_fanout] [PAIRS=10] [SEED=1995] [LAYERS=1]
# LAYERS=1 adds one traced run per side: which layers' self time moved, and
# any per-layer count that differs (exit 1, like an unequal sim block).
pairs:
	python3 tools/ledger_pairs.py $(REF) $(if $(W),--workload $(W)) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(SEED),--seed $(SEED)) $(if $(LAYERS),--layers)

all: test bench
