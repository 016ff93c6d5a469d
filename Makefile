# LBRM reproduction — developer entry points.  Everything runs from the
# source checkout: the package is on PYTHONPATH, never installed.

.PHONY: test bench examples loc all

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

all: test bench
