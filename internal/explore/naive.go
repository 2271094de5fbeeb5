package explore

import (
	"fmt"
	"sync/atomic"

	"promising/internal/core"
	"promising/internal/lang"
	"promising/internal/obs"
)

// Naive explores all interleavings of all machine transitions (reads,
// fulfils, exclusive failures and promises), deduplicating states. It is the
// reference explorer: slower than promise-first (the ablation Table 2-style
// benchmarks quantify by how much) but a direct transcription of the
// machine-step relation, which makes it the oracle for Theorems 6.2 and 7.1.
//
// It runs on Interleave, the interleaving driver it shares with the flat
// explorer. All workers share one exploration-scoped certification cache — the same
// thread configuration ⟨T, M⟩ recurs across every global state differing
// only in the other threads, so per-step certification amortises to cache
// lookups across the run.
//
// Both reductions of reduce.go apply here (unless configured off): states
// are deduplicated on their thread-symmetry-canonical encoding, and
// independence pruning sleeps thread families across commuting steps. A
// non-promise step only mutates the acting thread (memory is shared
// untouched), so any two non-promise steps of different threads commute
// — same child state either order, and neither changes what the other
// thread can do (certification included: it depends only on the thread
// and the unchanged memory). Promise steps append to memory and are
// conservatively dependent on everything: a family with any promise step
// is never slept, and a promise child wakes all families.
func Naive(cp *lang.CompiledProgram, spec *ObsSpec, opts Options) *Result {
	res, _ := naiveRun(cp, spec, opts, nil)
	return res
}

// ResumeNaive continues a checkpointed naive exploration from its
// snapshot, byte-identically: snapshot outcomes and counters merge with
// the resumed leg's, and the imported seen-set guarantees no state is
// processed twice across legs.
func ResumeNaive(cp *lang.CompiledProgram, spec *ObsSpec, snap *Snapshot, opts Options) (*Result, error) {
	if err := snap.Validate(snapNaive, &opts); err != nil {
		return nil, err
	}
	return naiveRun(cp, spec, opts, snap)
}

func naiveRun(cp *lang.CompiledProgram, spec *ObsSpec, opts Options, snap *Snapshot) (*Result, error) {
	cc := opts.certCache()
	return Interleave(snapNaive, cp, spec, naiveMachine{cp: cp, spec: spec, certify: opts.Certify, cc: cc}, cc, opts, snap)
}

type naiveStep = Step[*core.Machine, core.Label]

// naiveMachine is the promising machine as an Interleaving: every machine
// step of a thread (reads, fulfils, exclusive failures and certified
// promises) is one of its family's steps.
type naiveMachine struct {
	cp      *lang.CompiledProgram
	spec    *ObsSpec
	certify bool
	cc      *core.CertCache
}

func (n naiveMachine) Root() *core.Machine { return core.NewMachine(n.cp) }

func (n naiveMachine) Decode(b []byte) (*core.Machine, error) { return core.DecodeMachine(n.cp, b) }

func (naiveMachine) AppendKey(b []byte, m *core.Machine) []byte { return m.AppendState(b) }

func (naiveMachine) AppendThreadKey(b []byte, m *core.Machine, tid int) []byte {
	return core.EncodeThread(b, m.Threads[tid])
}

func (naiveMachine) AppendMemKey(b []byte, m *core.Machine, tidMap []int) []byte {
	return core.EncodeMemoryMapped(b, m.Mem, 0, tidMap)
}

func (n naiveMachine) Successors(dst []naiveStep, m *core.Machine, tid int) []naiveStep {
	for _, s := range m.ThreadSuccessorsCached(tid, n.certify, n.cc) {
		dst = append(dst, naiveStep{To: s.M, Label: s.Label})
	}
	return dst
}

func (naiveMachine) BoundExceeded(m *core.Machine) bool { return m.BoundExceeded() }

// Final ignores stuck: a final state may still have successors (e.g.
// further promises) and records its outcome regardless.
func (naiveMachine) Final(m *core.Machine, _ bool) bool { return m.Final() }

func (n naiveMachine) Observe(m *core.Machine) Outcome { return observe(n.spec, m) }

func (naiveMachine) Witness(trace []core.Label) *Witness { return &Witness{Labels: trace} }

// Sleepable refuses a family with a promise step: promises append to the
// shared memory, so they are conservatively dependent on everything.
func (naiveMachine) Sleepable(steps []naiveStep) bool {
	for _, s := range steps {
		if s.Label.Kind == core.StepPromise {
			return false
		}
	}
	return true
}

// Wake keeps every sleeper across a non-promise step, which mutates only
// the acting thread, and wakes all of them across a promise.
func (naiveMachine) Wake(_ *core.Machine, st naiveStep, sleep uint32) uint32 {
	if st.Label.Kind == core.StepPromise {
		return 0
	}
	return sleep
}

// statsOf assembles a run's ExploreStats from its dedup set and
// certification cache (either may be nil). Hit/miss counters are reported
// relative to start, so a cache shared across runs (Options.CertCache)
// yields per-run stats rather than cache-lifetime totals; CertEntries is
// the cache's current size.
func statsOf(seen *SeenSet, cc *core.CertCache, start core.CertStats) ExploreStats {
	var st ExploreStats
	if seen != nil {
		st.Interned = seen.Len()
	}
	cs := cc.Stats()
	st.CertHits = cs.Hits - start.Hits
	st.CertMisses = cs.Misses - start.Misses
	st.CertEntries = cs.Entries
	return st
}

// statsProbe builds the Options.StatsProbe closure for the certifying
// machine explorers: the backend-local counters a mid-run StatsSnapshot
// carries, read from the same structures statsOf reads at the end (all
// concurrent-safe: the interner's length is an atomic, the cert cache
// locks its shards, the reduction counters are atomics). symHits and
// pruned may be nil for backends without that counter. prev, when
// non-nil, is a caller-installed probe (the server's shard-job dedup
// counters) chained in front of the backend's own.
func statsProbe(prev func(*obs.StatsSnapshot), seen *SeenSet, cc *core.CertCache, start core.CertStats, symHits, pruned *atomic.Int64) func(*obs.StatsSnapshot) {
	return func(snap *obs.StatsSnapshot) {
		if prev != nil {
			prev(snap)
		}
		if seen != nil {
			snap.Interned = seen.Len()
		}
		cs := cc.Stats()
		snap.CertHits = cs.Hits - start.Hits
		snap.CertMisses = cs.Misses - start.Misses
		if symHits != nil {
			snap.SymmetryHits = symHits.Load()
		}
		if pruned != nil {
			snap.PrunedStates = pruned.Load()
		}
	}
}

// emitCertSummary emits the "certify-summary" stage event of a
// certifying run (skipped when the run did no cache lookups).
func emitCertSummary(tr *obs.Trace, st ExploreStats) {
	if tr == nil || st.CertHits+st.CertMisses == 0 {
		return
	}
	tr.Emit("certify-summary", fmt.Sprintf("hits=%d misses=%d entries=%d hit-rate=%.1f%%",
		st.CertHits, st.CertMisses, st.CertEntries, 100*st.CertHitRate()))
}
