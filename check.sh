#!/bin/sh
# Tier-1 gate: full build, full test suite, and the no-committed-artifacts
# invariant, in one command (see README "CI").
set -eu

cd "$(dirname "$0")"

echo "== dune build @all"
dune build @all 2>&1

echo "== dune runtest"
dune runtest

echo "== one persistence protocol: no .tmp, Vfs.rename or Crash plan in lib/ outside lib/vfs"
# Vfs.write_atomic is the only write-then-rename and Vfs.crash_sweep the
# only loop that arms a Crash fault plan; a second copy of either fails
# here
proto=$(grep -rnE '"\.tmp"|Vfs\.rename|~mode:Vfs\.Crash' lib | grep -v '^lib/vfs/' || true)
if [ -n "$proto" ]; then
    echo "error: persistence protocol outside lib/vfs (use Vfs.write_atomic / Vfs.crash_sweep):" >&2
    echo "$proto" >&2
    exit 1
fi

echo "== obs smoke: trace a small install, validate it, check BENCH_obs.json"
# the trace must parse as Chrome trace-event JSON, contain the expected
# phase spans, and be byte-identical across two runs (virtual clock only)
obs_tmp=_build/obs-smoke
mkdir -p "$obs_tmp"
./_build/default/bin/spack.exe install --trace "$obs_tmp/trace1.json" libdwarf > /dev/null
./_build/default/bin/spack.exe install --trace "$obs_tmp/trace2.json" libdwarf > /dev/null
cmp "$obs_tmp/trace1.json" "$obs_tmp/trace2.json"
./_build/default/bin/spack.exe trace-validate "$obs_tmp/trace1.json" \
    --expect concretize --expect build.stage --expect build.configure \
    --expect build.compile --expect build.link --expect build.install \
    --expect "install libdwarf"
# the committed baseline must match a fresh run within the per-metric
# tolerance policy (bench --check never writes; re-baselining is an
# explicit `bench obs --update-baselines`)
./_build/default/bench/main.exe obs --check > /dev/null

echo "== profile smoke: critical-path report and JSONL log deterministic at every -j"
# `spack profile` must produce a byte-identical report and structured
# event log across repeated runs, serial and parallel, and the JSONL log
# must validate (balanced spans, monotone timestamps, profile.* events)
prof_tmp=_build/profile-smoke
mkdir -p "$prof_tmp"
for j in 1 4; do
    ./_build/default/bin/spack.exe profile -j "$j" --events "$prof_tmp/ev.jsonl" mpileaks > "$prof_tmp/report-a.txt"
    cp "$prof_tmp/ev.jsonl" "$prof_tmp/ev-a.jsonl"
    ./_build/default/bin/spack.exe profile -j "$j" --events "$prof_tmp/ev.jsonl" mpileaks > "$prof_tmp/report-b.txt"
    cmp "$prof_tmp/report-a.txt" "$prof_tmp/report-b.txt"
    cmp "$prof_tmp/ev-a.jsonl" "$prof_tmp/ev.jsonl"
done
./_build/default/bin/spack.exe trace-validate "$prof_tmp/ev-a.jsonl" \
    --expect concretize --expect install --expect mpileaks
grep -q '"ev":"profile.summary"' "$prof_tmp/ev-a.jsonl"
# the slack table surfaces through `spack stats --slack` too
./_build/default/bin/spack.exe stats --slack mpileaks | grep -q 'cp efficiency'

echo "== bench regression gate: --check passes on baselines, fires on +10% injected cost"
# an injected +10% per-node cost (a uniform scaling of the deterministic
# schedule) must fail the gate; the unperturbed run must pass
if ./_build/default/bench/main.exe parallel --check --inject-cost-pct 10 > "$prof_tmp/inject.out" 2>&1; then
    echo "error: bench --check did not catch a +10% cost injection" >&2
    exit 1
fi
grep -q 'REGRESSION' "$prof_tmp/inject.out"

echo "== parallel smoke: -j4 deterministic, store identical to -j1, check BENCH_parallel.json"
# the parallel scheduler must be deterministic (two -j4 runs byte-identical,
# trace included) and must leave exactly the store a serial install leaves
par_tmp=_build/parallel-smoke
mkdir -p "$par_tmp"
./_build/default/bin/spack.exe install -j 4 --trace "$par_tmp/trace1.json" \
    --index-out "$par_tmp/index-j4a.json" mpileaks > /dev/null
./_build/default/bin/spack.exe install -j 4 --trace "$par_tmp/trace2.json" \
    --index-out "$par_tmp/index-j4b.json" mpileaks > /dev/null
./_build/default/bin/spack.exe install -j 1 \
    --index-out "$par_tmp/index-j1.json" mpileaks > /dev/null
cmp "$par_tmp/trace1.json" "$par_tmp/trace2.json"
cmp "$par_tmp/index-j4a.json" "$par_tmp/index-j4b.json"
cmp "$par_tmp/index-j1.json" "$par_tmp/index-j4a.json"
./_build/default/bench/main.exe parallel --check > /dev/null

echo "== ccache smoke: per backend, cold == warm == --fresh byte-for-byte, warm hits > 0, check BENCH_concretize.json"
# the concretization cache must be observationally invisible on every
# backend: a cold run, a warm run against the persisted cache, and a
# --fresh run must print byte-identical concrete specs; the warm run
# must report cache hits
cc_tmp=_build/ccache-smoke
mkdir -p "$cc_tmp"
for backend in greedy clauses; do
    cc="$cc_tmp/ccache-$backend.json"
    rm -f "$cc"
    ./_build/default/bin/spack.exe spec --concretizer "$backend" --ccache "$cc" mpileaks > "$cc_tmp/cold-$backend.out"
    ./_build/default/bin/spack.exe spec --concretizer "$backend" --ccache "$cc" mpileaks > "$cc_tmp/warm-$backend.out"
    ./_build/default/bin/spack.exe spec --concretizer "$backend" --fresh mpileaks > "$cc_tmp/fresh-$backend.out"
    cmp "$cc_tmp/cold-$backend.out" "$cc_tmp/warm-$backend.out"
    cmp "$cc_tmp/cold-$backend.out" "$cc_tmp/fresh-$backend.out"
    st="$cc_tmp/stats-ccache-$backend.json"
    rm -f "$st"
    ./_build/default/bin/spack.exe stats --concretizer "$backend" --ccache "$st" libdwarf > "$cc_tmp/stats-cold-$backend.out"
    ./_build/default/bin/spack.exe stats --concretizer "$backend" --ccache "$st" libdwarf > "$cc_tmp/stats-warm-$backend.out"
    grep -q '^ccache\.misses  *1$' "$cc_tmp/stats-cold-$backend.out"
    warm_hits=$(awk '/^ccache\.hits/ {print $2}' "$cc_tmp/stats-warm-$backend.out")
    if [ -z "$warm_hits" ] || [ "$warm_hits" -lt 1 ]; then
        echo "error: warm $backend run reported no ccache hits" >&2
        exit 1
    fi
done
# the clause backend's cached path must also hold on the divergence spec
# greedy cannot solve
div_cc="$cc_tmp/ccache-divergence.json"
rm -f "$div_cc"
./_build/default/bin/spack.exe spec --concretizer clauses --ccache "$div_cc" mpileaks ^mpi+hwloc ^hwloc@1.9 > "$cc_tmp/div-cold.out"
./_build/default/bin/spack.exe spec --concretizer clauses --ccache "$div_cc" mpileaks ^mpi+hwloc ^hwloc@1.9 > "$cc_tmp/div-warm.out"
cmp "$cc_tmp/div-cold.out" "$cc_tmp/div-warm.out"
grep -q 'openmpi' "$cc_tmp/div-cold.out"
# the bench asserts byte-identity and the >=5x iteration reduction over
# the whole 21-workload suite
./_build/default/bench/main.exe concretize --check > /dev/null

echo "== solve smoke: clause backend solves what greedy cannot, deterministically; check BENCH_solve.json"
# the §4.5 divergence spec: greedy must dead-end with a blocked decision
# path, the clause backend must solve it (through openmpi) with
# byte-identical output across runs; a true conflict must produce an
# unsat core on the clause backend
sv_tmp=_build/solve-smoke
mkdir -p "$sv_tmp"
div_spec="mpileaks ^mpi+hwloc ^hwloc@1.9"
if ./_build/default/bin/spack.exe solve $div_spec > "$sv_tmp/greedy.out" 2>&1; then
    echo "error: greedy unexpectedly solved the divergence spec" >&2
    exit 1
fi
grep -q 'blocked decision path (greedy backend):' "$sv_tmp/greedy.out"
./_build/default/bin/spack.exe solve --concretizer clauses $div_spec > "$sv_tmp/clauses1.out"
./_build/default/bin/spack.exe solve --concretizer clauses $div_spec > "$sv_tmp/clauses2.out"
cmp "$sv_tmp/clauses1.out" "$sv_tmp/clauses2.out"
grep -q 'openmpi' "$sv_tmp/clauses1.out"
if ./_build/default/bin/spack.exe solve --concretizer clauses "gerris ^mpich@1.4" > "$sv_tmp/unsat.out" 2>&1; then
    echo "error: clause backend solved an unsatisfiable spec" >&2
    exit 1
fi
grep -q 'unsat core (clauses backend):' "$sv_tmp/unsat.out"
# the bench asserts byte-identical backend agreement over the whole
# 21-workload suite plus the divergence/unsat contract
./_build/default/bench/main.exe solve --check > /dev/null

echo "== store smoke: crash-consistency torture at sampled kill points, check BENCH_store.json"
# the torture command kills an install at filesystem write barriers,
# recovers the store with a fresh installer, and verifies the reloaded
# index is a prefix of the completed store with no unindexed orphans;
# sampled here (every 13th barrier, serial and -j4) — the full
# every-boundary sweep runs in the test suite (test_torture)
st_tmp=_build/store-smoke
mkdir -p "$st_tmp"
./_build/default/bin/spack.exe torture --every 13 mpileaks > "$st_tmp/torture-j1.out"
grep -q 'kill point' "$st_tmp/torture-j1.out"
./_build/default/bin/spack.exe torture -j 4 --every 13 mpileaks > "$st_tmp/torture-j4.out"
grep -q 'kill point' "$st_tmp/torture-j4.out"
# the bench asserts sharded index traffic beats the legacy whole-file
# rewrite and that a single-recipe edit leaves unrelated ccache entries
# live (per-entry Merkle invalidation)
./_build/default/bench/main.exe store --check > /dev/null

echo "== buildcache smoke: fleet trace deterministic, splice verified, check BENCH_buildcache.json"
# the mirror-fleet trace is seeded and runs on the virtual clock, so two
# generations of the document must be byte-identical; splicing a cached
# dyninst onto libelf@0.8.12 must recompute the hash and pass the
# empty-environment loader verification
bc_tmp=_build/buildcache-smoke
mkdir -p "$bc_tmp"
./_build/default/bench/main.exe buildcache "$bc_tmp/doc1.json" > /dev/null
./_build/default/bench/main.exe buildcache "$bc_tmp/doc2.json" > /dev/null
cmp "$bc_tmp/doc1.json" "$bc_tmp/doc2.json"
./_build/default/bin/spack.exe splice dyninst --replace libelf@0.8.12 > "$bc_tmp/splice.out"
grep -q 'spliced hash differs' "$bc_tmp/splice.out"
grep -q 'loader verified' "$bc_tmp/splice.out"
# the bench asserts the full accounting: hits + source builds cover the
# trace, every recovery path fires, and the zipf skew shows
./_build/default/bench/main.exe buildcache --check > /dev/null

echo "== env smoke: unified solve -j4, lockfile replay byte-identical, stale lock refused, check BENCH_env.json"
# process 1 solves an environment fresh and exports its lockfile and
# store index; process 2 (an empty store) imports the lockfile, replays
# it with install_locked, and must end at a byte-identical index;
# process 3 layers a drifted site config and must refuse the same
# lockfile with a typed staleness error, installing nothing
env_tmp=_build/env-smoke
mkdir -p "$env_tmp"
cat > "$env_tmp/solve.spack" <<EOF
env-create apps /opt/apps
env-add apps lulesh +openmp
env-add apps hpccg
env-install apps -j 4
env-status apps
env-lock-export apps $env_tmp/lock.json
index-export $env_tmp/index-solve.json
EOF
cat > "$env_tmp/replay.spack" <<EOF
env-create apps /opt/apps
env-add apps lulesh +openmp
env-add apps hpccg
env-lock-import apps $env_tmp/lock.json
env-install-locked apps -j 4
index-export $env_tmp/index-replay.json
EOF
cat > "$env_tmp/stale.spack" <<EOF
env-create apps /opt/apps
env-add apps lulesh +openmp
env-add apps hpccg
env-lock-import apps $env_tmp/lock.json
env-install-locked apps -j 4
index-export $env_tmp/index-stale.json
EOF
./_build/default/bin/spack.exe script "$env_tmp/solve.spack" > "$env_tmp/solve.out"
grep -q 'lockfile written' "$env_tmp/solve.out"
./_build/default/bin/spack.exe script "$env_tmp/replay.spack" > "$env_tmp/replay.out"
grep -q 'lockfile replayed' "$env_tmp/replay.out"
# the solve store and the replay store agree record for record
cmp "$env_tmp/index-solve.json" "$env_tmp/index-replay.json"
printf 'site.name = elsewhere\n' > "$env_tmp/drifted.conf"
if ./_build/default/bin/spack.exe script --config "$env_tmp/drifted.conf" \
       "$env_tmp/stale.spack" > "$env_tmp/stale.out" 2>&1; then
    echo "error: a stale lockfile replayed under a drifted config" >&2
    exit 1
fi
grep -q 'stale' "$env_tmp/stale.out"
grep -q '"records": \[\]' "$env_tmp/index-stale.json"
# the env lifecycle survives a kill at every 7th filesystem barrier
./_build/default/bin/spack.exe torture --env --every 7 libdwarf gsl > "$env_tmp/torture.out"
grep -q 'kill point' "$env_tmp/torture.out"
# the bench asserts byte-identical solve-vs-replay stores/indexes/views,
# the typed staleness refusal, and closure-exact shared-store views
./_build/default/bench/main.exe env --check > /dev/null

echo "== perfbench smoke: install-synth and env-lifecycle correct, no failed request"
# short real-time runs exercise the harness's own checks on the store:
# a reloaded index equal to the live database (install-synth) and a
# byte-identical locked replay into an empty store (env-lifecycle)
pb_tmp=_build/perfbench-smoke
mkdir -p "$pb_tmp"
for w in install-synth env-lifecycle; do
    bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 \
        > "$pb_tmp/$w.out" 2> "$pb_tmp/$w.err" || true
    last=$(tail -n 1 "$pb_tmp/$w.out")
    case "$last" in
        *'"correct": true'*'"failed": 0'*) ;;
        *)
            echo "error: perfbench $w did not pass its checks:" >&2
            cat "$pb_tmp/$w.err" >&2
            echo "$last" >&2
            exit 1 ;;
    esac
done

echo "== checking for stray _build files in git"
# nothing under _build/ may be tracked, and none may appear in git status
# (deletions are fine — that is _build being purged, not committed)
stray=$( { git ls-files _build;
           git status --porcelain -- _build | grep -v '^ \?D' | awk '{print $2}'; } \
         | sort -u )
if [ -n "$stray" ]; then
    echo "error: _build/ artifacts visible to git (is .gitignore intact?):" >&2
    echo "$stray" | head >&2
    exit 1
fi

echo "OK"
