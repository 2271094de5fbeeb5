package core

import (
	"fmt"

	"promising/internal/lang"
)

// StepKind labels thread transitions for traces and the interactive UI.
type StepKind int

// Step kinds. Internal steps (assignments, fences, branches, local
// accesses) are deterministic and are folded into the following visible
// step by Advance.
const (
	StepRead StepKind = iota
	StepFulfil
	StepXclFail
	StepPromise
	StepFinish // thread ran to completion (no visible memory step)
	// StepRMW is a single-instruction atomic read-modify-write: one visible
	// step combining a read (Val/TS) with the fulfilment of a promised
	// write (Val2/TS2; TS2 = 0 marks a CAS whose comparison failed and
	// performed no write).
	StepRMW
)

// Label describes one visible transition, for witness traces.
type Label struct {
	Kind StepKind
	TID  int
	Loc  lang.Loc
	Val  lang.Val
	TS   Time // read: timestamp read from; fulfil/promise: write timestamp
	// Val2/TS2 are the written value and timestamp of an RMW step
	// (TS2 = 0: the RMW read but did not write).
	Val2 lang.Val
	TS2  Time
}

// String renders the label in the paper's style.
func (l Label) String() string {
	switch l.Kind {
	case StepRead:
		return fmt.Sprintf("T%d: read [%d]=%d @%d", l.TID, l.Loc, l.Val, l.TS)
	case StepFulfil:
		return fmt.Sprintf("T%d: fulfil <%d:=%d> @%d", l.TID, l.Loc, l.Val, l.TS)
	case StepXclFail:
		return fmt.Sprintf("T%d: store-exclusive fails", l.TID)
	case StepPromise:
		return fmt.Sprintf("T%d: promise <%d:=%d> @%d", l.TID, l.Loc, l.Val, l.TS)
	case StepFinish:
		return fmt.Sprintf("T%d: finished", l.TID)
	case StepRMW:
		if l.TS2 == 0 {
			return fmt.Sprintf("T%d: rmw read [%d]=%d @%d (no write)", l.TID, l.Loc, l.Val, l.TS)
		}
		return fmt.Sprintf("T%d: rmw read [%d]=%d @%d, fulfil <%d:=%d> @%d", l.TID, l.Loc, l.Val, l.TS, l.Loc, l.Val2, l.TS2)
	default:
		return fmt.Sprintf("T%d: step(%d)", l.TID, int(l.Kind))
	}
}

// Env bundles the static context of thread execution.
type Env struct {
	Arch lang.Arch
	Code *lang.Code
	// TID is the identifier of the executing thread.
	TID int
	// Shared decides whether a location is shared memory; non-shared
	// locations are executed thread-locally (§7 optimisation).
	Shared func(lang.Loc) bool
}

// AllShared is a Shared predicate treating every location as shared.
func AllShared(lang.Loc) bool { return true }

// Advance folds deterministic silent steps: skip, sequencing, register
// assignments, fences, isb, branches, bound-failure markers and accesses to
// non-shared locations. It stops when the thread is Done, has exceeded its
// loop bound, or its next node is a shared-memory load or store, returning
// that node's index (or -1).
//
// Folding is sound for exploration because these steps are deterministic,
// thread-local and do not read or write memory, so they commute with every
// other thread's transitions.
func Advance(env *Env, th *Thread) int32 {
	ts := th.TS
	for len(th.Cont) > 0 {
		id := th.pop()
		n := &env.Code.Nodes[id]
		switch n.Kind {
		case lang.NSkip:
			// nothing
		case lang.NSeq:
			th.push(n.S2)
			th.push(n.S1)
		case lang.NAssign:
			v, view := ts.Eval(n.E)
			ts.Regs[n.Dst] = RegVal{Val: v, View: view}
		case lang.NFence:
			// Rule (fence): ν1 = (R⊑K1 ? vrOld) ⊔ (W⊑K1 ? vwOld).
			v1 := Join(JoinIf(n.K1.IncludesR(), ts.VROld), JoinIf(n.K1.IncludesW(), ts.VWOld))
			ts.VRNew = Join(ts.VRNew, JoinIf(n.K2.IncludesR(), v1))
			ts.VWNew = Join(ts.VWNew, JoinIf(n.K2.IncludesW(), v1))
		case lang.NISB:
			// Rule (isb), ρ7.
			ts.VRNew = Join(ts.VRNew, ts.VCAP)
		case lang.NIf:
			// Rule (branch), r22: the condition's view joins vCAP.
			v, view := ts.Eval(n.Cond)
			ts.VCAP = Join(ts.VCAP, view)
			if v != 0 {
				th.push(n.Then)
			} else {
				th.push(n.Else)
			}
		case lang.NBoundFail:
			ts.BoundExceeded = true
			th.Cont = th.Cont[:0]
			return -1
		case lang.NLoad:
			l, _ := ts.Eval(n.Addr)
			if env.Shared(l) || n.Xcl {
				th.push(id)
				return id
			}
			localLoad(ts, n, l)
		case lang.NStore:
			l, _ := ts.Eval(n.Addr)
			if env.Shared(l) || n.Xcl {
				th.push(id)
				return id
			}
			localStore(ts, n, l)
		case lang.NRMW:
			l, _ := ts.Eval(n.Addr)
			if env.Shared(l) {
				th.push(id)
				return id
			}
			localRMW(ts, n, l)
		default:
			panic(fmt.Sprintf("core: unknown node kind %d", n.Kind))
		}
	}
	return -1
}

// localLoad executes a load from a thread-private location as a register
// read, preserving dataflow views (and the vCAP address capture, which the
// full model would record).
func localLoad(ts *TState, n *lang.Node, l lang.Loc) {
	_, vaddr := ts.Eval(n.Addr)
	rv := RegVal{} // initial value 0 with view 0
	if v, ok := ts.Local.Get(l); ok {
		rv = v
	}
	ts.Regs[n.Dst] = RegVal{Val: rv.Val, View: Join(rv.View, vaddr)}
	ts.VCAP = Join(ts.VCAP, vaddr)
}

// localStore executes a store to a thread-private location as a register
// write.
func localStore(ts *TState, n *lang.Node, l lang.Loc) {
	_, vaddr := ts.Eval(n.Addr)
	v, vdata := ts.Eval(n.Data)
	ts.setLocal(l, RegVal{Val: v, View: Join(vaddr, vdata)})
	ts.VCAP = Join(ts.VCAP, vaddr)
}

// localRMW executes an RMW on a thread-private location as a register
// read-modify-write (single-thread access: atomicity is trivial).
func localRMW(ts *TState, n *lang.Node, l lang.Loc) {
	_, vaddr := ts.Eval(n.Addr)
	_, vdata := ts.Eval(n.Data)
	old := RegVal{}
	if v, ok := ts.Local.Get(l); ok {
		old = v
	}
	nv, writes := RMWWriteVal(ts, n, old.Val)
	post := Join(old.View, vaddr)
	ts.Regs[n.Dst] = RegVal{Val: old.Val, View: post}
	if writes {
		ts.setLocal(l, RegVal{Val: nv, View: Join(Join(vaddr, vdata), post)})
	}
	ts.VCAP = Join(ts.VCAP, vaddr)
}

// readView implements read-view(a, rk, f, t) of §A.3: forwarding from the
// thread's own last write yields the (smaller) forward view, except when
// that write was exclusive and either the architecture is RISC-V or the
// load is (weak or strong) acquire (ρ13).
func readView(arch lang.Arch, rk lang.ReadKind, f FwdItem, t Time) View {
	if f.Time == t && !(f.Xcl && !(arch == lang.ARM && rk == lang.ReadPlain)) {
		return f.View
	}
	return t
}

// ReadChoice is one enabled read: timestamp and resulting value.
type ReadChoice struct {
	TS  Time
	Val lang.Val
}

// loadPreView computes the pre-view of the pending load node n (r10, r6, ρ4).
func loadPreView(ts *TState, n *lang.Node) (loc lang.Loc, vaddr, pre View) {
	l, va := ts.Eval(n.Addr)
	pre = Join(va, ts.VRNew)
	if n.RK.AtLeast(lang.ReadAcq) {
		pre = Join(pre, ts.VRel)
	}
	return l, va, pre
}

// ReadChoices enumerates the timestamps the pending load at node id may
// read from (rule read): the newest write to the location at or below
// νpre ⊔ coh(l), plus every later write to the location.
func ReadChoices(env *Env, th *Thread, id int32, mem *Memory) []ReadChoice {
	return appendReadChoices(nil, env, th, id, mem)
}

// appendReadChoices appends the ReadChoices of the pending load to out.
func appendReadChoices(out []ReadChoice, env *Env, th *Thread, id int32, mem *Memory) []ReadChoice {
	n := &env.Code.Nodes[id]
	l, _, pre := loadPreView(th.TS, n)
	floor := Join(pre, th.TS.CohView(l))
	// Newest write to l at or below floor (timestamp 0 = initial write).
	base := 0
	for t := floor; t >= 1; t-- {
		if t <= mem.Len() && mem.At(t).Loc == l {
			base = t
			break
		}
	}
	if v, ok := mem.Read(l, base); ok {
		out = append(out, ReadChoice{TS: base, Val: v})
	}
	for t := floor + 1; t <= mem.Len(); t++ {
		if mem.At(t).Loc == l {
			out = append(out, ReadChoice{TS: t, Val: mem.At(t).Val})
		}
	}
	return out
}

// ApplyRead executes the pending load at node id reading timestamp t,
// mutating the thread (which must be a private copy). It returns the label.
func ApplyRead(env *Env, th *Thread, id int32, mem *Memory, t Time) Label {
	ts := th.TS
	n := &env.Code.Nodes[id]
	l, vaddr, pre := loadPreView(ts, n)
	v, ok := mem.Read(l, t)
	if !ok {
		panic("core: ApplyRead with invalid timestamp")
	}
	post := Join(pre, readView(env.Arch, n.RK, ts.Fwd(l), t))
	ts.Regs[n.Dst] = RegVal{Val: v, View: post}
	ts.setCoh(l, Join(ts.CohView(l), post))
	ts.VROld = Join(ts.VROld, post)
	if n.RK.AtLeast(lang.ReadWeakAcq) {
		ts.VRNew = Join(ts.VRNew, post)
		ts.VWNew = Join(ts.VWNew, post)
	}
	ts.VCAP = Join(ts.VCAP, vaddr)
	if n.Xcl {
		ts.Xclb = &XclItem{Time: t, View: post}
	}
	// Consume the load node.
	th.pop()
	return Label{Kind: StepRead, TID: env.TID, Loc: l, Val: v, TS: t}
}

// storePreView computes the pre-view of the pending store node n
// (r10, r6, r21/r23, ρ1, ρ14).
func storePreView(arch lang.Arch, ts *TState, n *lang.Node) (loc lang.Loc, val lang.Val, vaddr, vdata, pre View) {
	l, va := ts.Eval(n.Addr)
	v, vd := ts.Eval(n.Data)
	pre = Join(Join(va, vd), Join(ts.VWNew, ts.VCAP))
	if n.WK.AtLeast(lang.WriteWeakRel) {
		pre = Join(pre, Join(ts.VROld, ts.VWOld))
	}
	if arch == lang.RISCV && n.Xcl && ts.Xclb != nil {
		pre = Join(pre, ts.Xclb.View)
	}
	return l, v, va, vd, pre
}

// CanFulfil reports whether the pending store at node id can fulfil the
// promise at timestamp t against mem (rule fulfil), without mutating.
func CanFulfil(env *Env, th *Thread, id int32, mem *Memory, t Time) bool {
	ts := th.TS
	n := &env.Code.Nodes[id]
	if !ts.Prom.Has(t) {
		return false
	}
	l, v, _, _, pre := storePreView(env.Arch, ts, n)
	msg := mem.At(t)
	if msg.Loc != l || msg.Val != v || msg.TID != env.TID {
		return false
	}
	if n.Xcl {
		if ts.Xclb == nil || !mem.Atomic(l, env.TID, ts.Xclb.Time, t) {
			return false
		}
	}
	return Join(pre, ts.CohView(l)) < t
}

// FulfilChoices lists the outstanding promises the pending store can fulfil.
func FulfilChoices(env *Env, th *Thread, id int32, mem *Memory) []Time {
	return appendFulfilChoices(nil, env, th, id, mem)
}

// appendFulfilChoices appends the FulfilChoices of the pending store to out.
func appendFulfilChoices(out []Time, env *Env, th *Thread, id int32, mem *Memory) []Time {
	for _, t := range th.TS.Prom {
		if CanFulfil(env, th, id, mem, t) {
			out = append(out, t)
		}
	}
	return out
}

// ApplyFulfil executes the pending store at node id fulfilling the promise
// at timestamp t, mutating the thread (a private copy). The caller must
// have checked CanFulfil.
func ApplyFulfil(env *Env, th *Thread, id int32, mem *Memory, t Time) Label {
	ts := th.TS
	n := &env.Code.Nodes[id]
	l, v, vaddr, vdata, _ := storePreView(env.Arch, ts, n)
	post := t
	ts.Prom = ts.Prom.Remove(t)
	if n.Xcl {
		vsucc := View(0)
		if env.Arch == lang.RISCV {
			vsucc = post
		}
		ts.Regs[n.Dst] = RegVal{Val: lang.VSucc, View: vsucc}
	}
	ts.setCoh(l, Join(ts.CohView(l), post))
	ts.VWOld = Join(ts.VWOld, post)
	ts.VCAP = Join(ts.VCAP, vaddr)
	if n.WK.AtLeast(lang.WriteRel) {
		ts.VRel = Join(ts.VRel, post)
	}
	ts.setFwd(l, FwdItem{Time: t, View: Join(vaddr, vdata), Xcl: n.Xcl})
	if n.Xcl {
		ts.Xclb = nil
	}
	th.pop()
	return Label{Kind: StepFulfil, TID: env.TID, Loc: l, Val: v, TS: t}
}

// ApplyXclFail executes the exclusive-failure rule on the pending exclusive
// store at node id, mutating the thread.
func ApplyXclFail(env *Env, th *Thread, id int32) Label {
	ts := th.TS
	n := &env.Code.Nodes[id]
	if !n.Xcl {
		panic("core: ApplyXclFail on non-exclusive store")
	}
	ts.Regs[n.Dst] = RegVal{Val: lang.VFail, View: 0}
	ts.Xclb = nil
	th.pop()
	return Label{Kind: StepXclFail, TID: env.TID}
}

// Promise appends the write w at the next timestamp and records it in the
// thread's promise set (rule promise). It returns the new timestamp.
func Promise(env *Env, th *Thread, mem *Memory, loc lang.Loc, val lang.Val) Time {
	t := mem.Append(Msg{Loc: loc, Val: val, TID: env.TID})
	th.TS.Prom = th.TS.Prom.Add(t)
	return t
}

// NormalWrite performs the pending store at node id as a fresh write:
// a promise immediately followed by its fulfilment (rule seq-write / r20).
// It reports whether the write was possible (it always is view-wise, since
// the new timestamp exceeds every view, but an exclusive store may fail the
// atomicity check or lack a paired load exclusive). preCoh is the store's
// νpre ⊔ coh(l) at the moment of the write, which find_and_certify compares
// against the pre-certification memory bound (§B step 2).
func NormalWrite(env *Env, th *Thread, id int32, mem *Memory) (t Time, preCoh View, ok bool) {
	ts := th.TS
	n := &env.Code.Nodes[id]
	l, v, _, _, pre := storePreView(env.Arch, ts, n)
	t = mem.Len() + 1
	if n.Xcl {
		if ts.Xclb == nil || !mem.Atomic(l, env.TID, ts.Xclb.Time, t) {
			return 0, 0, false
		}
	}
	preCoh = Join(pre, ts.CohView(l))
	mem.Append(Msg{Loc: l, Val: v, TID: env.TID})
	// Promising t and fulfilling it at once leaves Prom as it was, so
	// ApplyFulfil's removal of t (absent) stands for both.
	ApplyFulfil(env, th, id, mem, t)
	return t, preCoh, true
}

// Atomic read-modify-writes (ARMv8.1 LSE / RISC-V AMO).
//
// An RMW instruction is one visible step combining the read rule with the
// fulfilment of a promised write (or, in certification, a fresh write):
// the read satisfies exactly like a load of kind RK (including forwarding,
// via readView), the write exactly like a store of kind WK, and the §A.3
// exclusivity check Atomic(l, tid, tr, tw) guarantees single-copy
// atomicity — no other thread's write to l between the read and the
// write. A CAS whose comparison fails performs the read only.
//
// The write's data view depends on the operation: a fetch-op's written
// value is computed from the value read, so its data view includes the
// read's post view; a swap's written value is just the operand; a CAS
// write is conditional on the comparison, so its data view includes both
// the comparison operand and the read's post view. The read's post view
// also joins the write's pre-view directly (the write is ordered after
// its own read), which the fulfil condition would force anyway through
// the post-read coherence view.
//
// The forward-bank entry of an RMW write is marked exclusive, so
// forwarding out of it is restricted exactly like a store-exclusive
// (ρ13 / the axiomatic aob edge [range(rmw)];rfi).

// RMWWriteVal computes the value the pending RMW at node n would write
// after reading old, and whether it writes at all (a CAS whose comparison
// fails performs no write). Operands are evaluated against the pre-step
// register file.
func RMWWriteVal(ts *TState, n *lang.Node, old lang.Val) (nv lang.Val, writes bool) {
	d, _ := ts.Eval(n.Data)
	if n.Op == lang.RMWCas {
		e, _ := ts.Eval(n.Exp)
		return d, old == e
	}
	return n.Op.Apply(old, d), true
}

// rmwDataView is the data view of an RMW write: the operand views plus,
// for value- or comparison-dependent writes, the read's post view.
func rmwDataView(ts *TState, n *lang.Node, postR View) View {
	_, vd := ts.Eval(n.Data)
	switch n.Op {
	case lang.RMWSwap:
		return vd
	case lang.RMWCas:
		_, vexp := ts.Eval(n.Exp)
		return Join(Join(vd, vexp), postR)
	default:
		return Join(vd, postR)
	}
}

// rmwWritePre is the write half's pre-view (r21/r23 over the post-read
// state, assembled from pre-read views plus the read's post view, which
// subsumes every component the read half would have joined).
func rmwWritePre(ts *TState, n *lang.Node, vaddr, postR View) View {
	pre := Join(Join(vaddr, rmwDataView(ts, n, postR)), Join(ts.VWNew, ts.VCAP))
	if n.WK.AtLeast(lang.WriteWeakRel) {
		pre = Join(pre, Join(ts.VROld, ts.VWOld))
	}
	return Join(pre, postR)
}

// CanRMW reports whether the pending RMW at node id, reading timestamp
// tr, can fulfil the promise at tw (rule read + rule fulfil fused, with
// the §A.3 atomicity check), without mutating.
func CanRMW(env *Env, th *Thread, id int32, mem *Memory, tr, tw Time) bool {
	ts := th.TS
	n := &env.Code.Nodes[id]
	if !ts.Prom.Has(tw) {
		return false
	}
	l, va, preR := loadPreView(ts, n)
	old, ok := mem.Read(l, tr)
	if !ok {
		return false
	}
	nv, writes := RMWWriteVal(ts, n, old)
	if !writes {
		return false
	}
	msg := mem.At(tw)
	if msg.Loc != l || msg.Val != nv || msg.TID != env.TID {
		return false
	}
	if !mem.Atomic(l, env.TID, tr, tw) {
		return false
	}
	postR := Join(preR, readView(env.Arch, n.RK, ts.Fwd(l), tr))
	return Join(rmwWritePre(ts, n, va, postR), ts.CohView(l)) < tw
}

// RMWFulfilChoices lists the outstanding promises the pending RMW at node
// id can fulfil after reading timestamp tr.
func RMWFulfilChoices(env *Env, th *Thread, id int32, mem *Memory, tr Time) []Time {
	return appendRMWFulfilChoices(nil, env, th, id, mem, tr)
}

// appendRMWFulfilChoices appends the RMWFulfilChoices of the pending RMW to
// out.
func appendRMWFulfilChoices(out []Time, env *Env, th *Thread, id int32, mem *Memory, tr Time) []Time {
	for _, t := range th.TS.Prom {
		if CanRMW(env, th, id, mem, tr, t) {
			out = append(out, t)
		}
	}
	return out
}

// ApplyRMW executes the pending RMW at node id reading timestamp tr and
// fulfilling the promise at tw, mutating the thread (a private copy). The
// caller must have checked CanRMW.
func ApplyRMW(env *Env, th *Thread, id int32, mem *Memory, tr, tw Time) Label {
	ts := th.TS
	n := &env.Code.Nodes[id]
	l, va, preR := loadPreView(ts, n)
	old, ok := mem.Read(l, tr)
	if !ok {
		panic("core: ApplyRMW with invalid read timestamp")
	}
	nv, writes := RMWWriteVal(ts, n, old)
	if !writes {
		panic("core: ApplyRMW on a non-writing RMW")
	}
	postR := Join(preR, readView(env.Arch, n.RK, ts.Fwd(l), tr))
	vdata := rmwDataView(ts, n, postR) // before the read clobbers Dst
	// Read half (rule read).
	ts.Regs[n.Dst] = RegVal{Val: old, View: postR}
	ts.setCoh(l, Join(ts.CohView(l), postR))
	ts.VROld = Join(ts.VROld, postR)
	if n.RK.AtLeast(lang.ReadWeakAcq) {
		ts.VRNew = Join(ts.VRNew, postR)
		ts.VWNew = Join(ts.VWNew, postR)
	}
	ts.VCAP = Join(ts.VCAP, va)
	// Write half (rule fulfil).
	ts.Prom = ts.Prom.Remove(tw)
	ts.setCoh(l, Join(ts.CohView(l), tw))
	ts.VWOld = Join(ts.VWOld, tw)
	if n.WK.AtLeast(lang.WriteRel) {
		ts.VRel = Join(ts.VRel, tw)
	}
	ts.setFwd(l, FwdItem{Time: tw, View: Join(va, vdata), Xcl: true})
	th.pop()
	return Label{Kind: StepRMW, TID: env.TID, Loc: l, Val: old, TS: tr, Val2: nv, TS2: tw}
}

// ApplyRMWNoWrite executes the read-only step of an RMW whose comparison
// failed (a CAS reading a value different from its comparison operand):
// exactly the read half, with no write, mutating the thread.
func ApplyRMWNoWrite(env *Env, th *Thread, id int32, mem *Memory, tr Time) Label {
	ts := th.TS
	n := &env.Code.Nodes[id]
	l, va, preR := loadPreView(ts, n)
	old, ok := mem.Read(l, tr)
	if !ok {
		panic("core: ApplyRMWNoWrite with invalid timestamp")
	}
	if _, writes := RMWWriteVal(ts, n, old); writes {
		panic("core: ApplyRMWNoWrite on a writing RMW")
	}
	postR := Join(preR, readView(env.Arch, n.RK, ts.Fwd(l), tr))
	ts.Regs[n.Dst] = RegVal{Val: old, View: postR}
	ts.setCoh(l, Join(ts.CohView(l), postR))
	ts.VROld = Join(ts.VROld, postR)
	if n.RK.AtLeast(lang.ReadWeakAcq) {
		ts.VRNew = Join(ts.VRNew, postR)
		ts.VWNew = Join(ts.VWNew, postR)
	}
	ts.VCAP = Join(ts.VCAP, va)
	th.pop()
	return Label{Kind: StepRMW, TID: env.TID, Loc: l, Val: old, TS: tr}
}

// RMWNormalWrite performs the pending RMW at node id reading timestamp tr
// with the write as a fresh write — a promise immediately followed by its
// fulfilment — for the certification search (the analogue of NormalWrite).
// preCoh is the write's pre-view ⊔ coherence bound at the moment of the
// write, for the §B candidate filter.
func RMWNormalWrite(env *Env, th *Thread, id int32, mem *Memory, tr Time) (t Time, preCoh View, ok bool) {
	ts := th.TS
	n := &env.Code.Nodes[id]
	l, va, preR := loadPreView(ts, n)
	old, okr := mem.Read(l, tr)
	if !okr {
		return 0, 0, false
	}
	nv, writes := RMWWriteVal(ts, n, old)
	if !writes {
		return 0, 0, false
	}
	t = mem.Len() + 1
	if !mem.Atomic(l, env.TID, tr, t) {
		return 0, 0, false
	}
	postR := Join(preR, readView(env.Arch, n.RK, ts.Fwd(l), tr))
	preCoh = Join(rmwWritePre(ts, n, va, postR), ts.CohView(l))
	mem.Append(Msg{Loc: l, Val: nv, TID: env.TID})
	// As in NormalWrite, the promise of t and its fulfilment cancel out.
	ApplyRMW(env, th, id, mem, tr, t)
	return t, preCoh, true
}
