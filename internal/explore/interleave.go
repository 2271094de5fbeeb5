package explore

import (
	"fmt"
	"sync/atomic"

	"promising/internal/core"
	"promising/internal/lang"
)

// Interleaving is the backend half of Interleave: one machine's state
// encodings, step relation and independence rule over states S whose
// steps carry witness labels L. Implementations are small value types
// holding the compiled program and per-run configuration.
type Interleaving[S, L any] interface {
	// Root is the initial state.
	Root() S
	// Decode rebuilds a state from its AppendKey encoding.
	Decode(b []byte) (S, error)
	// AppendKey appends the whole-state key: the seen-set entry when no
	// symmetry applies, and always the frontier entry of a snapshot.
	AppendKey(b []byte, s S) []byte
	// AppendThreadKey appends thread tid's part of the key.
	AppendThreadKey(b []byte, s S, tid int) []byte
	// AppendMemKey appends the memory part of the key with every thread
	// id t written as tidMap[t] (nil tidMap: unchanged).
	AppendMemKey(b []byte, s S, tidMap []int) []byte
	// Successors appends thread tid's steps from s to dst.
	Successors(dst []Step[S, L], s S, tid int) []Step[S, L]
	// BoundExceeded reports that some thread of s ran out of loop bound.
	BoundExceeded(s S) bool
	// Final reports whether s records an outcome; stuck reports that no
	// family expanded at s had a step.
	Final(s S, stuck bool) bool
	// Observe projects s onto the observation spec.
	Observe(s S) Outcome
	// Witness renders the path that reached a final state.
	Witness(trace []L) *Witness
	// Sleepable reports whether a family with the (non-empty) steps
	// from a state may sleep in the children of its later siblings.
	Sleepable(steps []Step[S, L]) bool
	// Wake returns the part of sleep that stays asleep in st's child:
	// the families whose every step from s commutes with st.
	Wake(s S, st Step[S, L], sleep uint32) uint32
}

// Step is one transition reported by Interleaving.Successors.
type Step[S, L any] struct {
	To    S
	Label L
}

// interleaveEntry is one frontier state of an Interleave run.
type interleaveEntry[S, L any] struct {
	s S
	// trace is the path that reached s, materialised only when collecting
	// witnesses.
	trace []L
	// sleep is the arrival sleep set: families covered by a sibling
	// ordering. A slept family is always enabled at s.
	sleep uint32
	// todo is the set of families this entry expands: the bits newly
	// claimed in the claim table.
	todo uint32
	// ctodo is todo in the canonical frame (AllFamilies without a claim
	// table), compared against Options.Remote's late denials.
	ctodo uint32
	// fresh marks the first-ever arrival at the canonical state: the one
	// that counts it in States and may count a dead end.
	fresh bool
	// h is the canonical state's seen-set handle; 0 (never issued by the
	// interner) marks a root.
	h core.Handle
}

// Interleave explores every interleaving of the machine's per-thread steps
// on the parallel engine, deduplicating states in one SeenSet so each
// distinct state is expanded exactly once under any worker schedule. It is
// the one driver behind the naive and flat explorers; backend is the
// snapshot stamp, and cc the certification cache whose counters the run
// reports (nil for a machine that does not certify).
//
// Reductions (reduce.go) apply unless configured off or collecting
// witnesses. Symmetry interns each state under its thread-symmetry
// canonical key and closes the outcome set at the end. Pruning keeps a
// sleep set per entry and a claim table per canonical state, with these
// invariants:
//   - A family enters sleepable, and so may sleep in a later sibling's
//     child, only when it has a step here and m.Sleepable allows it; m.Wake
//     then removes the sleepers each step depends on.
//   - An arrival claims its awake families in the canonical frame. It
//     expands only the newly claimed ones, so each family is expanded at
//     most once per state over the run.
//   - Options.Remote is told of the newly claimed families after the local
//     claim. Families it denies stay claimed locally: the attempt granted
//     them expands them, so later local arrivals must not. A child with
//     nothing left to expand is dropped; an entry whose every family was
//     denied by the time it is popped is skipped. Roots are never
//     reported or dropped.
//   - A checkpoint's frontier keeps each entry's sleep, todo and fresh bits
//     (packAux). A resumed leg re-claims them before it starts, since the
//     claim table is not saved.
//
// Only the fresh arrival counts a state, and a dead end is a fresh,
// non-final, stuck arrival with an empty sleep set.
func Interleave[M Interleaving[S, L], S, L any](backend string, cp *lang.CompiledProgram, spec *ObsSpec, m M, cc *core.CertCache, opts Options, snap *Snapshot) (*Result, error) {
	type entry = interleaveEntry[S, L]
	refusedCkpt := opts.CollectWitnesses && opts.Checkpoint != nil
	if opts.CollectWitnesses {
		// Witness traces cannot be serialized into a snapshot; run
		// uncheckpointable rather than produce a lossy one.
		opts.Checkpoint = nil
	}
	nThreads := len(cp.Threads)
	var sym *Symmetry
	if opts.Reductions.Symmetry() && !opts.CollectWitnesses {
		sym = NewSymmetry(cp, spec)
	}
	var claims *claimTable
	var allMask uint32
	if opts.Reductions.Pruning() && !opts.CollectWitnesses && nThreads <= MaxReductionThreads {
		claims = newClaimTable()
		allMask = uint32(1)<<nThreads - 1
	}
	var symHits, pruned atomic.Int64
	seen := NewSeenSet()
	ccStart := cc.Stats()

	// addState interns s's canonical key and returns its handle, freshness
	// and canonicalizing thread order (nil = identity). For a child it
	// also claims the awake families, consults Options.Remote, and returns
	// the to-expand set in the concrete (todo) and canonical (ctodo) frame
	// and whether the child is dropped.
	addState := func(s S, child bool, sleep uint32) (h core.Handle, fresh bool, order []int, todo, ctodo uint32, drop bool) {
		bp := core.GetEncBuf()
		b := *bp
		if sym != nil {
			encs := make([][]byte, nThreads)
			for t := range encs {
				encs[t] = m.AppendThreadKey(nil, s, t)
			}
			var hit bool
			b, order, hit = sym.CanonicalState(b, encs, func(bb []byte, tidMap []int) []byte {
				return m.AppendMemKey(bb, s, tidMap)
			})
			if hit {
				symHits.Add(1)
			}
		} else {
			b = m.AppendKey(b, s)
		}
		h, fresh = seen.Add(b)
		if child {
			if claims != nil {
				ctodo = claims.Claim(h, CanonMask(allMask&^sleep, order))
				if ctodo != 0 && opts.Remote != nil {
					ctodo &^= opts.Remote.Discovered(b, h, ctodo)
				}
				todo = concreteMask(ctodo, order)
				drop = todo == 0
			} else {
				ctodo = AllFamilies
				drop = !fresh || opts.Remote != nil && opts.Remote.Discovered(b, h, AllFamilies) == AllFamilies
			}
		}
		*bp = b
		core.PutEncBuf(bp)
		return
	}

	var roots []entry
	visited := 0
	if snap == nil {
		s0 := m.Root()
		h, _, order, _, _, _ := addState(s0, false, 0)
		root := entry{s: s0, fresh: true}
		if claims != nil {
			root.todo = concreteMask(claims.Claim(h, CanonMask(allMask, order)), order)
		}
		roots = []entry{root}
	} else {
		seen.Import(snap.Seen)
		useAux := len(snap.FrontierAux) == len(snap.Frontier)
		for i, fb := range snap.Frontier {
			s, err := m.Decode(fb)
			if err != nil {
				return nil, err
			}
			e := entry{s: s, fresh: true}
			if useAux {
				e.sleep, e.todo, e.fresh = unpackAux(snap.FrontierAux[i])
			}
			if claims != nil {
				h, _, order, _, _, _ := addState(s, false, 0)
				if !useAux {
					e.todo = allMask
				}
				claims.Claim(h, CanonMask(e.todo, order))
			}
			roots = append(roots, e)
		}
		visited = snap.States
	}

	eng := Engine[entry]{Process: func(e entry, c *Ctx[entry]) {
		if e.h != 0 && opts.Remote != nil && opts.Remote.ShouldDrop(e.h, e.ctodo) {
			return
		}
		n := 0
		if e.fresh {
			n = 1
		}
		if !c.Visit(n) {
			return
		}
		if m.BoundExceeded(e.s) {
			c.Res.BoundExceeded = true
			return
		}
		buf, _ := c.Scratch.(*[]Step[S, L])
		if buf == nil {
			buf = new([]Step[S, L])
			c.Scratch = buf
		}
		var sleepable uint32
		stuck := true
		for tid := 0; tid < nThreads; tid++ {
			bit := uint32(1) << tid
			if claims != nil && e.todo&bit == 0 {
				if e.sleep&bit != 0 {
					pruned.Add(1)
				}
				continue
			}
			steps := m.Successors((*buf)[:0], e.s, tid)
			*buf = steps
			if len(steps) == 0 {
				continue
			}
			stuck = false
			for _, st := range steps {
				var childSleep uint32
				if claims != nil {
					if childSleep = (e.sleep | sleepable) &^ bit; childSleep != 0 {
						childSleep = m.Wake(e.s, st, childSleep)
					}
				}
				h, fresh, _, todo, ctodo, drop := addState(st.To, true, childSleep)
				if drop {
					continue
				}
				var trace []L
				if opts.CollectWitnesses {
					trace = append(append([]L(nil), e.trace...), st.Label)
				}
				c.Push(entry{s: st.To, trace: trace, sleep: childSleep, todo: todo, ctodo: ctodo, fresh: fresh, h: h})
			}
			if claims != nil && m.Sleepable(steps) {
				sleepable |= bit
			}
		}
		if m.Final(e.s, stuck) {
			var w *Witness
			if opts.CollectWitnesses {
				w = m.Witness(e.trace)
			}
			c.Res.add(m.Observe(e.s), w)
		} else if stuck && e.fresh && e.sleep == 0 {
			c.Res.DeadEnds++
		}
	}}
	opts.StatsProbe = statsProbe(opts.StatsProbe, seen, cc, ccStart, &symHits, &pruned)
	endSpan := opts.Trace.Span("explore")
	res, pending := eng.ResumeRun(roots, &opts, visited)
	endSpan(fmt.Sprintf("%s leg: %d states, %d outcomes", backend, res.States, len(res.Outcomes)))
	res.CheckpointRefused = refusedCkpt
	res.Stats = statsOf(seen, cc, ccStart)
	res.Stats.SymmetryClasses = sym.Classes()
	res.Stats.SymmetryHits = symHits.Load()
	res.Stats.PrunedStates = pruned.Load()
	emitCertSummary(opts.Trace, res.Stats)
	if snap != nil {
		snap.mergeInto(res)
	}
	// Closing before snapshotting keeps persisted outcomes closed too
	// (closure is idempotent, so the next leg's re-close is a no-op).
	sym.CloseOutcomes(res)
	if len(pending) > 0 {
		frontier := make([][]byte, len(pending))
		var aux []uint64
		if claims != nil {
			aux = make([]uint64, len(pending))
		}
		for i, e := range pending {
			frontier[i] = m.AppendKey(nil, e.s)
			if aux != nil {
				aux[i] = packAux(e.sleep, e.todo, e.fresh)
			}
		}
		if opts.DeltaSnapshot && snap != nil {
			res.Snapshot = newDeltaSnapshot(backend, &opts, res, frontier, seen, aux, snap)
		} else {
			res.Snapshot = newSnapshot(backend, &opts, res, frontier, seen.Export(), aux)
			if snap != nil {
				res.Snapshot.Leg = snap.Leg + 1
			}
		}
	}
	return res, nil
}
