package explore

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"promising/internal/core"
	"promising/internal/lang"
)

// State-space reductions: thread-symmetry canonicalization and
// independence (sleep-set) pruning. Both are on by default and preserve
// the outcome set exactly; the differential suite certifies this by
// comparing reduced and unreduced runs byte-for-byte.
//
// Thread symmetry: threads compiled to structurally identical code, whose
// observed registers coincide, are interchangeable — the initial state is
// invariant under permuting them, and every transition rule treats thread
// ids opaquely (a message's TID is only ever compared against the acting
// thread's own id), so any permutation of a symmetry class maps reachable
// states to reachable states and outcomes to outcomes. Exploration
// therefore dedups on a canonical representative of each permutation
// orbit: the lexicographically least encoding over all class
// permutations. Since the interner/SeenSet is the single dedup choke
// point, every backend inherits the reduction by canonicalizing the key
// it interns. Outcome sets are made permutation-closed at the end of the
// run (the image of a reachable outcome under a class permutation is
// reachable, by the same symmetry), which is what makes reduced and
// unreduced outcome sets byte-identical.
//
// Independence pruning (sleep sets, Godefroid): when the step taken at a
// state commutes with every step of some other thread family, exploring
// that family's steps both before and after the taken step reaches the
// same states twice. Each explorer's entry carries a "sleep set" of
// families known to be exhaustively covered by a sibling ordering; slept
// families are not expanded. A per-canonical-state claim table records
// which families have ever been expanded there, so re-arrivals expand
// only newly awake families. Sleep sets prune transitions, never states:
// every reachable state is still visited, so States/DeadEnds and the
// outcome set are identical with pruning on or off.

// ReductionMode selects which state-space reductions an exploration
// applies. The zero value enables both (reductions are on by default);
// witness-collecting runs force ReduceOff so every interleaving stays
// reachable, and each backend applies only the reductions it supports
// (promise-first: symmetry only; axiomatic: none).
type ReductionMode int

const (
	// ReduceOn enables thread-symmetry canonicalization and independence
	// pruning (the default).
	ReduceOn ReductionMode = iota
	// ReduceOff disables both reductions (the pre-reduction behaviour).
	ReduceOff
	// ReduceSymmetry enables only thread-symmetry canonicalization.
	ReduceSymmetry
	// ReducePruning enables only independence pruning.
	ReducePruning
)

// String returns the flag spelling: on, off, symmetry or pruning.
func (m ReductionMode) String() string {
	switch m {
	case ReduceOff:
		return "off"
	case ReduceSymmetry:
		return "symmetry"
	case ReducePruning:
		return "pruning"
	default:
		return "on"
	}
}

// ParseReductionMode parses the -reductions flag value.
func ParseReductionMode(s string) (ReductionMode, error) {
	switch s {
	case "on", "":
		return ReduceOn, nil
	case "off":
		return ReduceOff, nil
	case "symmetry":
		return ReduceSymmetry, nil
	case "pruning":
		return ReducePruning, nil
	}
	return ReduceOff, fmt.Errorf("explore: bad reductions mode %q (want on, off, symmetry or pruning)", s)
}

// Symmetry reports whether the mode enables thread-symmetry
// canonicalization; Pruning likewise for independence pruning.
func (m ReductionMode) Symmetry() bool { return m == ReduceOn || m == ReduceSymmetry }

// Pruning reports whether the mode enables independence pruning.
func (m ReductionMode) Pruning() bool { return m == ReduceOn || m == ReducePruning }

// backendReductions reports which reductions the named snapshot backend
// can apply at all: the naive and flat explorers support both, the
// promise-first explorer canonicalizes its phase-1 memories (symmetry
// only — its phase structure has no interleaving to prune), and the
// axiomatic backend enumerates candidate executions rather than
// interleavings, so neither reduction applies.
func backendReductions(backend string) (sym, prune bool) {
	switch backend {
	case snapNaive, "flat":
		return true, true
	case snapPromising:
		return true, false
	default:
		return false, false
	}
}

// EffectiveReductions resolves the reduction configuration the named
// backend actually applies under these options, as the string stamped
// into snapshots: "none", "symmetry", "pruning" or "symmetry+pruning".
// Witness collection forces "none". The stamp depends only on (backend,
// options) — never on the test — so a resume under the same options
// always recomputes the stamp the snapshot carries.
func (o *Options) EffectiveReductions(backend string) string {
	bs, bp := backendReductions(backend)
	sym := bs && o.Reductions.Symmetry() && !o.CollectWitnesses
	prune := bp && o.Reductions.Pruning() && !o.CollectWitnesses
	switch {
	case sym && prune:
		return "symmetry+pruning"
	case sym:
		return "symmetry"
	case prune:
		return "pruning"
	default:
		return "none"
	}
}

// MaxReductionThreads bounds the thread count the bitmask-based pruning
// and the permutation-based canonicalization handle; programs with more
// threads run unreduced. Aux words pack two 30-bit masks plus a flag.
const MaxReductionThreads = 30

// symPermCap bounds the number of class permutations enumerated per
// state (6 threads in one class). Beyond the cap symmetry is disabled
// for the test — sound, just unreduced.
const symPermCap = 720

// Symmetry is the thread-symmetry structure of one compiled program
// under an observation spec: the partition of interchangeable threads
// and the enumerated class permutations.
type Symmetry struct {
	n       int
	classes [][]int // nontrivial classes (>= 2 members), ascending tids
	orders  [][]int // every class permutation; orders[0] is the identity
	regMaps [][]int // per order: outcome reg index remap for closure
}

type regKey struct {
	tid int
	reg lang.Reg
}

// NewSymmetry analyses cp and returns its symmetry structure, or nil when
// no two threads are interchangeable (or the program exceeds the thread or
// permutation caps). Two threads are classed together when their compiled
// code is structurally identical and the spec observes the same register
// set in both (so permuting them permutes outcome fields rather than
// inventing or dropping any).
func NewSymmetry(cp *lang.CompiledProgram, spec *ObsSpec) *Symmetry {
	n := len(cp.Threads)
	if n < 2 || n > MaxReductionThreads {
		return nil
	}
	regs := make([][]lang.Reg, n)
	for _, ro := range spec.Regs {
		if ro.TID < 0 || ro.TID >= n {
			return nil
		}
		regs[ro.TID] = append(regs[ro.TID], ro.Reg)
	}
	for _, rs := range regs {
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	}
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = -1
	}
	var classes [][]int
	for i := 0; i < n; i++ {
		if classOf[i] >= 0 {
			continue
		}
		cls := []int{i}
		classOf[i] = i
		for j := i + 1; j < n; j++ {
			if classOf[j] < 0 && sameRegs(regs[i], regs[j]) &&
				reflect.DeepEqual(cp.Threads[i], cp.Threads[j]) {
				classOf[j] = i
				cls = append(cls, j)
			}
		}
		if len(cls) >= 2 {
			classes = append(classes, cls)
		}
	}
	if len(classes) == 0 {
		return nil
	}
	orders := classPerms(n, classes)
	if orders == nil {
		return nil
	}
	sy := &Symmetry{n: n, classes: classes, orders: orders}
	idx := make(map[regKey]int, len(spec.Regs))
	for i, ro := range spec.Regs {
		idx[regKey{ro.TID, ro.Reg}] = i
	}
	sy.regMaps = make([][]int, len(orders))
	for p, o := range orders {
		m := make([]int, len(spec.Regs))
		for i, ro := range spec.Regs {
			j, ok := idx[regKey{o[ro.TID], ro.Reg}]
			if !ok {
				return nil // same-reg-set classing makes this unreachable
			}
			m[i] = j
		}
		sy.regMaps[p] = m
	}
	return sy
}

func sameRegs(a, b []lang.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// classPerms enumerates the product of within-class permutations as order
// slices (order[slot] = original thread id), identity first; nil when the
// product exceeds symPermCap.
func classPerms(n int, classes [][]int) [][]int {
	total := 1
	for _, cls := range classes {
		for i := 2; i <= len(cls); i++ {
			total *= i
		}
		if total > symPermCap {
			return nil
		}
	}
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	orders := [][]int{id}
	for _, cls := range classes {
		next := make([][]int, 0, len(orders))
		for _, base := range orders {
			forEachPerm(len(cls), func(p []int) {
				o := append([]int(nil), base...)
				for i, pi := range p {
					o[cls[i]] = cls[pi]
				}
				next = append(next, o)
			})
		}
		orders = next
	}
	return orders
}

// forEachPerm calls f with every permutation of [0..n) in lexicographic
// order (the identity first); the slice is reused across calls.
func forEachPerm(n int, f func([]int)) {
	p := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			f(p)
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			p[i] = v
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
}

// Classes returns the number of nontrivial symmetry classes (the
// SymmetryClasses stat).
func (sy *Symmetry) Classes() int {
	if sy == nil {
		return 0
	}
	return len(sy.classes)
}

// Threads returns the thread count the structure was built for.
func (sy *Symmetry) Threads() int { return sy.n }

// CanonicalState appends the canonical dedup key of a state given its
// per-thread encodings: the lexicographically least, over all class
// permutations, of the memory section (thread ids remapped through the
// permutation) followed by the thread encodings in permuted order — the
// exact section order of the unreduced keys, so reduced and unreduced
// runs intern keys of the same shape. encodeMem appends the memory
// section under a tidMap (tidMap[old] = new). It returns the key, the
// winning order (order[slot] = original thread; nil means identity) and
// whether the canonical form differs from the concrete one (a symmetry
// hit).
func (sy *Symmetry) CanonicalState(b []byte, threadEnc [][]byte, encodeMem func(b []byte, tidMap []int) []byte) ([]byte, []int, bool) {
	var best []byte
	bestIdx := 0
	tidMap := make([]int, sy.n)
	for oi, order := range sy.orders {
		for slot, old := range order {
			tidMap[old] = slot
		}
		cand := encodeMem(nil, tidMap)
		for _, old := range order {
			cand = append(cand, threadEnc[old]...)
		}
		if best == nil || bytes.Compare(cand, best) < 0 {
			best, bestIdx = cand, oi
		}
	}
	return append(b, best...), sy.orders[bestIdx], bestIdx != 0
}

// CanonicalMemory appends the canonical encoding of a bare memory (the
// promise-first phase-1 state): the lexicographically least
// thread-id-remapped encoding over all class permutations. The second
// result reports a symmetry hit.
func (sy *Symmetry) CanonicalMemory(b []byte, mem *core.Memory) ([]byte, bool) {
	var best []byte
	bestIdx := 0
	tidMap := make([]int, sy.n)
	for oi, order := range sy.orders {
		for slot, old := range order {
			tidMap[old] = slot
		}
		cand := core.EncodeMemoryMapped(nil, mem, 0, tidMap)
		if best == nil || bytes.Compare(cand, best) < 0 {
			best, bestIdx = cand, oi
		}
	}
	return append(b, best...), bestIdx != 0
}

// CloseOutcomes closes the result's outcome set under the class
// permutations: for every recorded outcome, its image under every
// permutation is recorded too. Images of reachable outcomes are reachable
// (permutations are automorphisms of the transition system), so closure
// adds nothing an unreduced run would not find — and it restores exactly
// the orbit members a canonicalized run collapsed, making reduced and
// unreduced outcome sets byte-identical. One pass suffices: the
// permutations form a group. Observed memory locations are
// thread-neutral and pass through unchanged. Idempotent, so re-closing
// after a resume merge is safe.
func (sy *Symmetry) CloseOutcomes(res *Result) {
	if sy == nil {
		return
	}
	base := make([]Outcome, 0, len(res.Outcomes))
	for _, o := range res.Outcomes {
		base = append(base, o)
	}
	for _, rm := range sy.regMaps[1:] {
		for _, o := range base {
			regs := make([]lang.Val, len(o.Regs))
			for i := range regs {
				regs[i] = o.Regs[rm[i]]
			}
			res.add(Outcome{Regs: regs, Mem: o.Mem}, nil)
		}
	}
}

// CanonMask converts a concrete thread bitmask into the canonical frame
// chosen by CanonicalState (canonical bit slot <- concrete bit
// order[slot]); nil order is the identity.
func CanonMask(mask uint32, order []int) uint32 {
	if order == nil || mask == 0 {
		return mask
	}
	var out uint32
	for slot, old := range order {
		if mask&(1<<old) != 0 {
			out |= 1 << slot
		}
	}
	return out
}

// concreteMask is the inverse of CanonMask for the same order.
func concreteMask(mask uint32, order []int) uint32 {
	if order == nil || mask == 0 {
		return mask
	}
	var out uint32
	for slot, old := range order {
		if mask&(1<<slot) != 0 {
			out |= 1 << old
		}
	}
	return out
}

// claimTable records, per canonical state handle, the set of thread
// families ever claimed for expansion there (in the canonical frame, so
// arrivals at different orbit representatives share one entry — sound
// because the representatives are isomorphic states and outcomes are
// permutation-closed at the end). Claims are monotone: each family is
// expanded at most once per state over the whole run, which is what keeps
// re-arrivals with different sleep sets from re-expanding covered
// families. Sharded like the interner for parallel workers.
type claimTable struct {
	shards [claimShards]claimShard
}

const claimShards = 64

type claimShard struct {
	mu sync.Mutex
	m  map[core.Handle]uint32
}

// newClaimTable returns an empty claim table.
func newClaimTable() *claimTable {
	t := &claimTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[core.Handle]uint32)
	}
	return t
}

// Claim atomically claims the families in want at state h and returns the
// subset not previously claimed (the caller expands exactly those).
func (t *claimTable) Claim(h core.Handle, want uint32) uint32 {
	s := &t.shards[uint64(h)%claimShards]
	s.mu.Lock()
	got := s.m[h]
	newly := want &^ got
	if newly != 0 {
		s.m[h] = got | newly
	}
	s.mu.Unlock()
	return newly
}

// Frontier aux words carry a pending entry's reduction state across a
// snapshot: the arrival sleep set (bits 0-29), the claimed to-expand set
// (bits 30-59) and the first-ever-arrival flag (bit 60). A zero word —
// and a snapshot with no aux at all — decodes to the conservative
// "expand everything, not fresh" state only through unpackAux's caller
// defaulting; packAux/unpackAux themselves are exact inverses.

const auxMaskBits = 30

// packAux packs a frontier entry's reduction state into one aux word.
func packAux(sleep, todo uint32, fresh bool) uint64 {
	w := uint64(sleep&(1<<auxMaskBits-1)) | uint64(todo&(1<<auxMaskBits-1))<<auxMaskBits
	if fresh {
		w |= 1 << (2 * auxMaskBits)
	}
	return w
}

// unpackAux is the inverse of packAux.
func unpackAux(w uint64) (sleep, todo uint32, fresh bool) {
	sleep = uint32(w) & (1<<auxMaskBits - 1)
	todo = uint32(w>>auxMaskBits) & (1<<auxMaskBits - 1)
	fresh = w&(1<<(2*auxMaskBits)) != 0
	return
}
