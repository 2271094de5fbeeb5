package core

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"promising/internal/lang"
)

// Certification (§4.3, §B).
//
// A thread configuration ⟨T, M⟩ is certified (r24) when the thread,
// executing alone and performing every new write as a normal write (promise
// immediately followed by fulfilment), can reach a state with no outstanding
// promises. find_and_certify additionally enumerates which fresh writes are
// legal promise steps: the writes performed on certifying traces whose
// pre-view ⊔ coherence view does not exceed the maximal timestamp of the
// pre-certification memory (§B, proved correct as Theorem 6.4).
//
// Certification is the dominant cost of promise-aware exploration: every
// machine step re-runs a sequential search over thread/memory states. The
// search does not clone a state per edge: a child is dead once its search
// returns (memos keep results, never states), so each certifier refills
// dead children from a free list (copyInto, sharing the replace-only Prom
// and Xclb; see TState). CertCache makes that work shared across a whole
// exploration —
// an exploration-scoped, concurrency-safe memo of search results keyed by
// interned (thread × memory) state handles, consulted and filled by every
// Certify call of a run, across all engine workers. Two access paths:
//
//   - Certify/Certified/FindAndCertify (the machine explorers): every
//     interior search state is shared. The same thread configuration
//     recurs across all global states differing only in the other
//     threads, so per-step certification amortises to cache lookups.
//   - CertifyScoped/CertifyAndComplete (the promise-first explorer):
//     phase-1 memories are deduplicated, so certification calls are
//     pairwise distinct and interior contexts essentially never recur
//     across calls; interior states are memoised call-locally and only
//     the root result is consulted and published. CertifyAndComplete
//     additionally folds the §7 phase-2 completion search into the same
//     walk: the completions of a thread under mem are exactly the
//     certification search states that never perform a new write, so one
//     tree walk yields both the candidate promises and the final register
//     observations that the seed implementation computed in two.

// weakCertLeak, when set, deliberately weakens the certification check: a
// search state with exactly one outstanding promise counts as certified
// (and, in the unified walk, as a phase-2 completion). This is an injected
// semantics bug — it lets a thread "promise" a write it never performs, so
// the promise-aware backends admit out-of-thin-air outcomes the axiomatic
// and flat models (and the naive machine's Final check) reject. It exists
// only so the fuzz campaign's acceptance tests can prove the differential
// harness detects and shrinks a real certification soundness hole; nothing
// outside tests may enable it.
var weakCertLeak atomic.Bool

// SetWeakCertLeakForTesting toggles the injected certification bug and
// returns the previous setting. Test-only; see weakCertLeak. Callers must
// not share CertCaches (or verdict caches) across a toggle — entries
// computed under the leak are wrong.
func SetWeakCertLeakForTesting(on bool) bool { return weakCertLeak.Swap(on) }

// promisesDischarged is the certification termination check (r24: no
// outstanding promises), routed through the test-only leak.
func promisesDischarged(prom PromSet) bool {
	return len(prom) == 0 || weakCertLeak.Load() && len(prom) == 1
}

// CertResult is the outcome of a certification search.
type CertResult struct {
	// Certified reports whether a sequential execution fulfils all promises.
	Certified bool
	// Promises lists the distinct messages that are legal promise steps.
	Promises []Msg
}

// CertCompleteResult extends CertResult with the thread's phase-2
// completions (CertifyAndComplete).
type CertCompleteResult struct {
	CertResult
	// Finals lists the observed register values (in the caller's obs
	// order) of every complete execution — the thread terminated with no
	// outstanding promise — reachable without performing any new write:
	// the §7 phase-2 completions of the thread under the given memory.
	// Entries are not deduplicated.
	Finals [][]lang.Val
	// FinalsBound reports that some completion path ran past the loop
	// bound, so Finals may be incomplete.
	FinalsBound bool
	// Aborted reports that the search was cut short by the visit callback
	// returning false; all results are then unusable.
	Aborted bool
}

// certShards is the shard count of a CertCache (a power of two).
const certShards = 64

// CertCache is an exploration-scoped certification cache. See the package
// comment above: entries are keyed by (thread id × interned thread-state
// handle × interned memory handle) and are exhaustive search results,
// never budget-truncated — exploration budgets (MaxStates, deadlines)
// never reach the certification search, so they are excluded from keys by
// construction.
//
// The search tree below a (thread, memory) state is independent of the
// pre-certification memory bound (baseTS): the step relation never
// consults it, and the §B view condition is deferred by recording each
// candidate write's minimal pre-view ⊔ coherence bound and filtering
// against the querying call's baseTS at the top level. Entries are
// therefore shared even between certifications with different
// pre-certification memories.
//
// Lifetime: one exploration of one compiled program. Thread encodings
// embed program-specific node indices, so a CertCache must not be reused
// across different compiled programs.
type CertCache struct {
	in     *Interner
	shards [certShards]certShard

	hits, misses atomic.Int64
}

type certShard struct {
	mu sync.Mutex
	m  map[certKey]certMemo
}

type certKey struct {
	// tid scopes the entry to one thread of the compiled program: thread
	// encodings embed continuation node indices, which index the owning
	// thread's code, so two threads with identical encodings (symmetric
	// tests) are still distinct search states.
	tid         int
	thread, mem Handle
	// unified separates CertifyAndComplete entries (which carry the
	// completion payload) from plain certification entries, so a plain
	// root entry can never satisfy a unified lookup with empty finals —
	// and obs (the interned encoding of the observed-register projection
	// baked into a unified entry's finals; 0 otherwise) keeps entries
	// from explorations of the same program under different observation
	// specs apart when a cache is shared across runs.
	// The collect flag is deliberately NOT part of the key: a full
	// (collecting) entry answers a reach-only query, and a reach-only
	// entry is upgraded in place when a full search completes, so the
	// machine explorers' Certified and FindAndCertify passes over the
	// same configuration share one entry instead of two.
	unified bool
	obs     Handle
}

// NewCertCache returns an empty cache with its own interner.
func NewCertCache() *CertCache {
	cc := &CertCache{in: NewInterner()}
	for i := range cc.shards {
		cc.shards[i].m = make(map[certKey]certMemo)
	}
	return cc
}

// CertStats is a point-in-time snapshot of cache performance.
type CertStats struct {
	// Hits and Misses count shared-cache lookups by certification searches
	// (per-call local memo hits are not counted).
	Hits, Misses int64
	// Entries is the number of cached search results.
	Entries int
}

// Stats snapshots the cache counters (zero for a nil cache).
func (cc *CertCache) Stats() CertStats {
	if cc == nil {
		return CertStats{}
	}
	s := CertStats{Hits: cc.hits.Load(), Misses: cc.misses.Load()}
	for i := range cc.shards {
		sh := &cc.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.m)
		sh.mu.Unlock()
	}
	return s
}

func (k certKey) hash() uint64 {
	h := uint64(k.thread)*0x9E3779B97F4A7C15 ^ uint64(k.mem)*fnvPrime64 ^ uint64(k.tid)
	if k.unified {
		h = ^h ^ uint64(k.obs)*fnvPrime64
	}
	return h
}

// get returns the entry for k usable at the given collect level: a full
// entry serves any query, a reach-only entry (early-exited, no candidate
// writes) only reach-only ones.
func (cc *CertCache) get(k certKey, collect bool) (certMemo, bool) {
	sh := &cc.shards[k.hash()&(certShards-1)]
	sh.mu.Lock()
	m, ok := sh.m[k]
	sh.mu.Unlock()
	if ok && collect && !m.full {
		return certMemo{}, false
	}
	return m, ok
}

// put publishes a completed search result. Entries are immutable after
// publication (their writes maps and finals are never mutated again), so
// readers may iterate them without holding the shard lock; a full entry
// replaces a reach-only one for the same key (the upgrade path), never
// the reverse.
func (cc *CertCache) put(k certKey, m certMemo) {
	sh := &cc.shards[k.hash()&(certShards-1)]
	sh.mu.Lock()
	if old, dup := sh.m[k]; !dup || (m.full && !old.full) {
		sh.m[k] = m
	}
	sh.mu.Unlock()
}

// Certify runs the certification search for thread th under mem,
// consulting and filling the cache (which may be nil for a one-shot,
// uncached search). The inputs are not mutated. When collectPromises is
// false the search stops as soon as a certifying trace is found. Every
// interior search state is shared through the cache — the machine
// explorers' access path.
func (cc *CertCache) Certify(env *Env, th *Thread, mem *Memory, collectPromises bool) CertResult {
	return cc.certify(certCall{env: env, collect: collectPromises, deep: cc != nil}, th, mem).CertResult
}

// CertifyScoped is Certify with call-scoped interior memoisation: interior
// search states hit a call-local memo, and only the root state is
// consulted and published, so a run whose certification calls are
// pairwise distinct (promise-first: phase-1 memories are deduplicated)
// does not grow the shared cache with states that can never be re-read.
func (cc *CertCache) CertifyScoped(env *Env, th *Thread, mem *Memory, collectPromises bool) CertResult {
	return cc.certify(certCall{env: env, collect: collectPromises}, th, mem).CertResult
}

// InternMemory interns mem's canonical encoding in the cache's interner,
// returning its handle for CertifyAndComplete: a caller certifying several
// threads under one memory interns it once instead of per call. Nil-safe
// (returns 0, the never-issued handle, which CertifyAndComplete treats as
// "intern for me").
func (cc *CertCache) InternMemory(mem *Memory) Handle {
	if cc == nil {
		return 0
	}
	bp := GetEncBuf()
	*bp = EncodeMemory(*bp, mem, 0)
	h, _ := cc.in.Intern(*bp)
	PutEncBuf(bp)
	return h
}

// CertifyAndComplete is the promise-first explorer's unified search: one
// call-scoped walk (see CertifyScoped) that returns both the legal promise
// steps of th under mem and the thread's phase-2 completions — the
// register observations (projected to obs) of every complete execution
// reachable without new writes. hmem is mem's handle from InternMemory (0
// to let the call intern it). visit, when non-nil, is called once per
// newly memoised completion-relevant state (exactly the states the
// two-pass implementation's completer counted); returning false aborts
// the search.
func (cc *CertCache) CertifyAndComplete(env *Env, th *Thread, mem *Memory, hmem Handle, obs []lang.Reg, visit func() bool) CertCompleteResult {
	return cc.certify(certCall{
		env:     env,
		collect: true,
		unified: true,
		obs:     obs,
		visit:   visit,
		hmem:    hmem,
	}, th, mem)
}

// Certified reports the declarative predicate only.
func (cc *CertCache) Certified(env *Env, th *Thread, mem *Memory) bool {
	if len(th.TS.Prom) == 0 {
		return true
	}
	return cc.Certify(env, th, mem, false).Certified
}

// FindAndCertify returns the legal promise steps of th under mem (§B).
// The configuration is assumed certified.
func (cc *CertCache) FindAndCertify(env *Env, th *Thread, mem *Memory) []Msg {
	return cc.Certify(env, th, mem, true).Promises
}

// FindAndCertifyScoped is FindAndCertify through CertifyScoped.
func (cc *CertCache) FindAndCertifyScoped(env *Env, th *Thread, mem *Memory) []Msg {
	return cc.CertifyScoped(env, th, mem, true).Promises
}

// Certify is the uncached entry point: a fresh search with a call-local
// memo, as used by one-shot clients and tests.
func Certify(env *Env, th *Thread, mem *Memory, collectPromises bool) CertResult {
	return (*CertCache)(nil).Certify(env, th, mem, collectPromises)
}

// Certified reports the declarative predicate only (uncached).
func Certified(env *Env, th *Thread, mem *Memory) bool {
	return (*CertCache)(nil).Certified(env, th, mem)
}

// FindAndCertify returns the legal promise steps of th under mem (§B),
// uncached.
func FindAndCertify(env *Env, th *Thread, mem *Memory) []Msg {
	return (*CertCache)(nil).FindAndCertify(env, th, mem)
}

// certMemo is the result of one certification search state. Once a memo is
// complete it is immutable; the shared cache hands the same memo to every
// worker.
type certMemo struct {
	reach bool
	// full marks an entry computed by a collecting (exhaustive) search;
	// entries from reach-only searches stop at the first certificate and
	// carry no writes, so they only answer reach-only queries (see
	// CertCache.get/put).
	full bool
	// writes maps each write performed on some certifying suffix from this
	// state to the minimal pre-view ⊔ coherence bound over those suffixes
	// (only tracked when collecting). Candidacy against a particular
	// pre-certification memory (preCoh <= baseTS, §B) is decided by the
	// querying call, keeping memos baseTS-independent.
	writes map[Msg]View
	// finals/fbound are the unified search's completion results from this
	// state (aggregated along non-write edges only).
	finals [][]lang.Val
	fbound bool
}

// certCall is the configuration and progress of one certification call.
type certCall struct {
	env     *Env
	baseTS  Time
	collect bool
	cc      *CertCache
	// deep shares every interior search state through the cache; without
	// it only the root state is consulted and published, and interior
	// states stay in the call-local memo.
	deep bool
	// rootDone flips once the root search state has been handled (the
	// first state to reach the memo point is the root).
	rootDone bool
	// unified enables completion tracking (CertifyAndComplete); obsH is
	// the interned obs projection (part of unified cache keys) and hmem
	// the caller-precomputed root memory handle (0 = intern in run).
	unified bool
	obs     []lang.Reg
	obsH    Handle
	hmem    Handle
	visit   func() bool
	aborted bool
}

// certifier runs one certification call at a time. Besides the call it
// holds scratch that outlives the call, recycled through certifierPool:
// the memo maps (cleared after each call), free lists of search children
// and the search-key and step-choice buffers.
//
// Search children are reused, not cloned per edge: a child is dead once
// its search returns, because memos keep only certMemo values (never a
// thread, a memory or an encoding they own), so the edge hands it straight
// back to the free list and the next edge refills it with copyInto.
type certifier struct {
	certCall
	// hmemo is the deep path's call-local memo, keyed by interned handles;
	// it doubles as the in-progress guard (states are marked before their
	// children are searched), which must stay call-local — a shared
	// placeholder would be read by other workers as a completed
	// "unreachable" result.
	hmemo map[[2]Handle]certMemo
	// memo is the call-scoped paths' memo, keyed by the raw encoding
	// (thread ++ memory suffix above baseTS, which is constant within a
	// call).
	memo map[string]certMemo
	// threads and mems are the free lists of dead search children.
	threads []*searchThread
	mems    []*Memory
	// key is the search-key encode buffer. reads and times are stacks of
	// step-choice lists: a search state appends its choices, iterates them
	// by index (its children push above) and truncates back.
	key   []byte
	reads []ReadChoice
	times []Time
}

// searchThread is a search child: a thread, its state, and the buffers
// that back its bank-encoding caches (TState.cacheBanks).
type searchThread struct {
	Thread
	ts   TState
	bufs bankBufs
}

var certifierPool = sync.Pool{New: func() any { return new(certifier) }}

// maxPooledMemo caps the memo size a pooled certifier keeps: clear costs
// time in the map's capacity, so one huge call would otherwise tax every
// small call after it.
const maxPooledMemo = 1 << 14

// certify runs one certification call on a pooled certifier.
func (cc *CertCache) certify(call certCall, th *Thread, mem *Memory) CertCompleteResult {
	c := certifierPool.Get().(*certifier)
	call.cc = cc
	call.baseTS = mem.MaxTS()
	c.certCall = call
	out := c.run(th, mem)
	c.certCall = certCall{}
	if len(c.memo) > maxPooledMemo {
		c.memo = nil
	}
	if len(c.hmemo) > maxPooledMemo {
		c.hmemo = nil
	}
	clear(c.memo)
	clear(c.hmemo)
	certifierPool.Put(c)
	return out
}

// child returns a free search child holding a copy of th.
func (c *certifier) child(th *Thread) *searchThread {
	var s *searchThread
	if n := len(c.threads); n > 0 {
		s = c.threads[n-1]
		c.threads = c.threads[:n-1]
	} else {
		s = new(searchThread)
		s.TS = &s.ts
	}
	th.copyInto(&s.Thread)
	return s
}

// childMem returns a free memory holding a copy of mem.
func (c *certifier) childMem(mem *Memory) *Memory {
	var m *Memory
	if n := len(c.mems); n > 0 {
		m = c.mems[n-1]
		c.mems = c.mems[:n-1]
	} else {
		m = new(Memory)
	}
	mem.copyInto(m)
	return m
}

// release returns a dead child, and its memory when it has its own, to
// the free lists.
func (c *certifier) release(s *searchThread, m *Memory) {
	c.threads = append(c.threads, s)
	if m != nil {
		c.mems = append(c.mems, m)
	}
}

// run copies the inputs into search children, runs the search and
// assembles the result.
func (c *certifier) run(th *Thread, mem *Memory) CertCompleteResult {
	hmem := c.hmem
	if c.cc != nil {
		if hmem == 0 {
			hmem = c.cc.InternMemory(mem)
		}
		if c.unified {
			// The observed-register projection is baked into the cached
			// finals, so it is part of the unified key.
			c.key = c.key[:0]
			for _, r := range c.obs {
				c.key = appendInt(c.key, int64(r))
			}
			c.obsH, _ = c.cc.in.Intern(c.key)
		}
	}
	if c.deep {
		if c.hmemo == nil {
			c.hmemo = make(map[[2]Handle]certMemo)
		}
	} else if c.memo == nil {
		c.memo = make(map[string]certMemo)
	}
	root, rootMem := c.child(th), c.childMem(mem)
	res := c.search(root, rootMem, hmem, true)
	c.release(root, rootMem)
	out := CertCompleteResult{CertResult: CertResult{Certified: res.reach}}
	if c.aborted {
		out.Aborted = true
		return out
	}
	if c.collect {
		for w, preCoh := range res.writes {
			// The §B view condition, against this call's memory bound.
			if preCoh <= c.baseTS {
				out.Promises = append(out.Promises, w)
			}
		}
		// Map order is random; callers step promises in the returned
		// order, so fix it.
		slices.SortFunc(out.Promises, func(a, b Msg) int {
			return cmp.Or(cmp.Compare(a.Loc, b.Loc), cmp.Compare(a.Val, b.Val), cmp.Compare(a.TID, b.TID))
		})
	}
	if c.unified {
		out.Finals = res.finals
		out.FinalsBound = res.fbound
	}
	return out
}

// search explores the sequential executions of s (alone) under mem. It
// owns and mutates s; mem is read only. hmem is mem's interned handle
// (cached runs only; non-write children reuse it, so each distinct memory
// is interned once per branch). plane reports that no new write has been
// performed on the path from the root, i.e. mem is still the root memory —
// the states whose complete executions are the thread's phase-2
// completions. It returns whether a prom = {} state is reachable, the
// candidate writes on certifying suffixes, and (unified) the completions.
func (c *certifier) search(s *searchThread, mem *Memory, hmem Handle, plane bool) certMemo {
	if c.aborted {
		return certMemo{}
	}
	th := &s.Thread
	id := Advance(c.env, th)
	if th.TS.BoundExceeded {
		// Ran past the loop bound: cannot use this trace as a certificate,
		// and (on the completion plane) the completion set is incomplete.
		return certMemo{fbound: true}
	}
	done := promisesDischarged(th.TS.Prom)
	if done && !c.collect {
		return certMemo{reach: true}
	}
	if id < 0 {
		// Program finished. On the completion plane a promise-free final
		// state is one phase-2 completion: record its observation.
		m := certMemo{reach: done}
		if c.unified && plane && done {
			vals := make([]lang.Val, len(c.obs))
			for i, r := range c.obs {
				vals[i] = th.TS.Regs[r].Val
			}
			m.finals = [][]lang.Val{vals}
		}
		return m
	}

	var (
		lkey  [2]Handle
		skey  string
		ckey  certKey
		share bool
	)
	root := !c.rootDone
	c.rootDone = true
	s.ts.cacheBanks(&s.bufs)
	c.key = EncodeThread(c.key[:0], th)
	if c.deep {
		hth, _ := c.cc.in.Intern(c.key)
		lkey = [2]Handle{hth, hmem}
		if m, ok := c.hmemo[lkey]; ok {
			return m
		}
		share = true
		ckey = certKey{tid: c.env.TID, thread: hth, mem: hmem, unified: c.unified, obs: c.obsH}
		if m, ok := c.cc.get(ckey, c.collect); ok {
			c.cc.hits.Add(1)
			c.hmemo[lkey] = m
			return m
		}
		c.cc.misses.Add(1)
		// Mark in-progress to cut cycles (none exist: programs are finite
		// and every step strictly consumes continuation nodes, but the
		// guard is cheap and protects against future extensions).
		c.hmemo[lkey] = certMemo{}
	} else {
		// Call-scoped runs keep interior states in a memo that dies with
		// the call (string keys: for states that are unique across the
		// run — the promise-first case — a call-local string map beats
		// global interning, which would retain every encoding for the
		// whole exploration), and consult the shared cache at the root
		// state only.
		nth := len(c.key)
		c.key = EncodeMemory(c.key, mem, c.baseTS)
		if m, ok := c.memo[string(c.key)]; ok {
			return m
		}
		skey = string(c.key)
		if share = root && c.cc != nil; share {
			hth, _ := c.cc.in.Intern(c.key[:nth])
			ckey = certKey{tid: c.env.TID, thread: hth, mem: hmem, unified: c.unified, obs: c.obsH}
			if m, ok := c.cc.get(ckey, c.collect); ok {
				c.cc.hits.Add(1)
				c.memo[skey] = m
				return m
			}
			c.cc.misses.Add(1)
		}
		c.memo[skey] = certMemo{}
	}
	if c.unified && plane && c.visit != nil {
		// One count per newly memoised completion-plane state: exactly the
		// states the two-pass implementation's completer explored.
		if !c.visit() {
			c.aborted = true
			return certMemo{}
		}
	}

	res := certMemo{reach: done, full: c.collect}
	n := &c.env.Code.Nodes[id]
	switch n.Kind {
	case lang.NLoad:
		lo := len(c.reads)
		c.reads = appendReadChoices(c.reads, c.env, th, id, mem)
		for i := lo; i < len(c.reads); i++ {
			child := c.child(th)
			ApplyRead(c.env, &child.Thread, id, mem, c.reads[i].TS)
			c.descend(&res, child, mem, hmem, plane)
		}
		c.reads = c.reads[:lo]
	case lang.NStore:
		// Fulfil an outstanding promise.
		lo := len(c.times)
		c.times = appendFulfilChoices(c.times, c.env, th, id, mem)
		for i := lo; i < len(c.times); i++ {
			child := c.child(th)
			ApplyFulfil(c.env, &child.Thread, id, mem, c.times[i])
			c.descend(&res, child, mem, hmem, plane)
		}
		c.times = c.times[:lo]
		// Perform a fresh (normal) write.
		child, childMem := c.child(th), c.childMem(mem)
		if t, preCoh, ok := NormalWrite(c.env, &child.Thread, id, childMem); ok {
			c.descendWrite(&res, child, childMem, t, preCoh, plane)
		}
		c.release(child, childMem)
		// An exclusive store may fail.
		if n.Xcl {
			child := c.child(th)
			ApplyXclFail(c.env, &child.Thread, id)
			c.descend(&res, child, mem, hmem, plane)
		}
	case lang.NRMW:
		lo := len(c.reads)
		c.reads = appendReadChoices(c.reads, c.env, th, id, mem)
		for i := lo; i < len(c.reads); i++ {
			rc := c.reads[i]
			// A CAS whose comparison fails is a read-only step.
			if _, writes := RMWWriteVal(th.TS, n, rc.Val); !writes {
				child := c.child(th)
				ApplyRMWNoWrite(c.env, &child.Thread, id, mem, rc.TS)
				c.descend(&res, child, mem, hmem, plane)
				continue
			}
			// Fulfil an outstanding promise.
			tlo := len(c.times)
			c.times = appendRMWFulfilChoices(c.times, c.env, th, id, mem, rc.TS)
			for j := tlo; j < len(c.times); j++ {
				child := c.child(th)
				ApplyRMW(c.env, &child.Thread, id, mem, rc.TS, c.times[j])
				c.descend(&res, child, mem, hmem, plane)
			}
			c.times = c.times[:tlo]
			// Perform the write as a fresh (normal) write.
			child, childMem := c.child(th), c.childMem(mem)
			if t, preCoh, ok := RMWNormalWrite(c.env, &child.Thread, id, childMem, rc.TS); ok {
				c.descendWrite(&res, child, childMem, t, preCoh, plane)
			}
			c.release(child, childMem)
		}
		c.reads = c.reads[:lo]
	default:
		panic("core: Advance stopped on a non-memory node")
	}
	if c.aborted {
		return certMemo{}
	}
	if c.deep {
		c.hmemo[lkey] = res
		c.cc.put(ckey, res)
	} else {
		c.memo[skey] = res
		if share {
			c.cc.put(ckey, res)
		}
	}
	return res
}

// descend searches child under the parent's memory, folds the result into
// res and frees the child, which is dead from here on.
func (c *certifier) descend(res *certMemo, child *searchThread, mem *Memory, hmem Handle, plane bool) {
	c.merge(res, c.search(child, mem, hmem, plane), nil, 0, plane)
	c.release(child, nil)
}

// descendWrite searches child under childMem, which the edge into it
// extended with a fresh write at timestamp t, and folds the result into
// res. The caller frees both.
func (c *certifier) descendWrite(res *certMemo, child *searchThread, childMem *Memory, t Time, preCoh View, plane bool) {
	w := childMem.At(t)
	var hchild Handle
	if c.deep {
		c.key = EncodeMemory(c.key[:0], childMem, 0)
		hchild, _ = c.cc.in.Intern(c.key)
	}
	c.merge(res, c.search(child, childMem, hchild, false), &w, preCoh, plane)
}

// merge folds a child result into res; when the edge into the child
// performed write w at pre-view ⊔ coherence bound preCoh, w becomes a
// candidate promise provided the child certifies (the §B view condition
// preCoh <= baseTS is applied by the top-level caller). Completions only
// propagate on the completion plane and along non-write edges (w == nil):
// a path that performed a new write is not an execution under the root
// memory, and off-plane finals have no consumer.
func (c *certifier) merge(res *certMemo, child certMemo, w *Msg, preCoh View, plane bool) {
	if c.unified && plane && w == nil {
		if res.finals == nil {
			// Share the child's (immutable) finals; the capacity clip
			// makes a later append copy instead of writing into them.
			res.finals = child.finals[:len(child.finals):len(child.finals)]
		} else {
			res.finals = append(res.finals, child.finals...)
		}
		res.fbound = res.fbound || child.fbound
	}
	if !child.reach {
		return
	}
	res.reach = true
	if !c.collect {
		return
	}
	if w != nil {
		res.addWrite(*w, preCoh)
	}
	for cw, pc := range child.writes {
		res.addWrite(cw, pc)
	}
}

// addWrite records w with the minimal pre-view bound seen so far (the
// map is allocated lazily: most search states never see a candidate).
func (m *certMemo) addWrite(w Msg, preCoh View) {
	if m.writes == nil {
		m.writes = make(map[Msg]View)
	} else if old, ok := m.writes[w]; ok && old <= preCoh {
		return
	}
	m.writes[w] = preCoh
}
