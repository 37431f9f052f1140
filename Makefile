GO ?= go

.PHONY: all build vet test race check bench bench-compare

all: check

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full pre-merge gate: build, vet, and the race-enabled test suite.
check:
	./scripts/check.sh

# The measurement spine (benchmark/README.md): every workload, both passes,
# five runs each; results land in BENCH_OUT. Compare two such files — e.g. one
# written from a checkout of the parent commit and one from the change — with
#   make bench-compare OLD=old.json NEW=new.json
BENCH_OUT ?= new.json
bench:
	$(GO) run ./benchmark -seed 1 -runs 5 -out $(BENCH_OUT)

bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./benchmark -compare $(OLD) $(NEW)
