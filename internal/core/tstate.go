package core

import (
	"fmt"
	"strings"

	"promising/internal/lang"
)

// LocView is one entry of a LocViews bank.
type LocView struct {
	Loc lang.Loc
	V   View
}

// LocViews maps locations to views, stored as a slice sorted by location:
// litmus-scale programs touch a handful of locations, so linear scans beat
// hashing, clones are single memmoves, and canonical encoding needs no
// sorting pass. The zero value is an empty bank.
type LocViews []LocView

// Get returns the view of l (0 when untouched).
func (m LocViews) Get(l lang.Loc) View {
	for i := range m {
		if m[i].Loc == l {
			return m[i].V
		}
	}
	return 0
}

// Set stores v for l, keeping the slice sorted.
func (m *LocViews) Set(l lang.Loc, v View) {
	s := *m
	i := 0
	for i < len(s) && s[i].Loc < l {
		i++
	}
	if i < len(s) && s[i].Loc == l {
		s[i].V = v
		return
	}
	s = append(s, LocView{})
	copy(s[i+1:], s[i:])
	s[i] = LocView{Loc: l, V: v}
	*m = s
}

// FwdEntry is one entry of a FwdBank.
type FwdEntry struct {
	Loc lang.Loc
	F   FwdItem
}

// FwdBank maps locations to forward-bank items (sorted slice; see
// LocViews for the representation rationale).
type FwdBank []FwdEntry

// Get returns fwdb(l) (zero item when untouched, per r15).
func (m FwdBank) Get(l lang.Loc) FwdItem {
	for i := range m {
		if m[i].Loc == l {
			return m[i].F
		}
	}
	return FwdItem{}
}

// Set stores f for l, keeping the slice sorted.
func (m *FwdBank) Set(l lang.Loc, f FwdItem) {
	s := *m
	i := 0
	for i < len(s) && s[i].Loc < l {
		i++
	}
	if i < len(s) && s[i].Loc == l {
		s[i].F = f
		return
	}
	s = append(s, FwdEntry{})
	copy(s[i+1:], s[i:])
	s[i] = FwdEntry{Loc: l, F: f}
	*m = s
}

// LocalEntry is one entry of a Locals bank.
type LocalEntry struct {
	Loc lang.Loc
	RV  RegVal
}

// Locals maps non-shared locations to thread-private storage (sorted
// slice; see LocViews for the representation rationale).
type Locals []LocalEntry

// Get returns the stored value of l and whether it was ever written.
func (m Locals) Get(l lang.Loc) (RegVal, bool) {
	for i := range m {
		if m[i].Loc == l {
			return m[i].RV, true
		}
	}
	return RegVal{}, false
}

// Set stores rv for l, keeping the slice sorted.
func (m *Locals) Set(l lang.Loc, rv RegVal) {
	s := *m
	i := 0
	for i < len(s) && s[i].Loc < l {
		i++
	}
	if i < len(s) && s[i].Loc == l {
		s[i].RV = rv
		return
	}
	s = append(s, LocalEntry{})
	copy(s[i+1:], s[i:])
	s[i] = LocalEntry{Loc: l, RV: rv}
	*m = s
}

// TState is the thread state of Fig. 2/4: promise set, register file,
// per-location coherence views, the six ordering views, the forward bank and
// the exclusives bank. Local additionally holds thread-private storage for
// locations declared non-shared (the §7 optimisation), and BoundExceeded
// flags executions that ran past the loop-unrolling bound.
//
// Prom and Xclb are replace-only: the step rules assign them a new value
// (PromSet.Add/Remove return a fresh slice, Xclb a fresh item or nil) and
// never write through the old one, so copies share them instead of
// copying. Regs and the three banks are updated in place and are copied.
type TState struct {
	Prom PromSet
	Regs []RegVal

	Coh LocViews

	VROld View // maximal post-view of loads executed so far (r5)
	VWOld View // maximal post-view of stores executed so far (r5)
	VRNew View // lower bound on future load pre-views (r6)
	VWNew View // lower bound on future store pre-views (r6)
	VCAP  View // control/address capture view (r21)
	VRel  View // maximal post-view of strong releases (ρ3)

	Fwdb FwdBank
	Xclb *XclItem

	Local Locals

	BoundExceeded bool

	// encCoh/encFwdb/encLocal cache the canonical encodings of the three
	// banks (encode.go). Encoding is the hottest loop of deduplication and
	// certification memoisation, and most steps mutate at most one bank, so
	// a clone inherits its parent's caches and EncodeThread re-serialises
	// only the banks that changed since. The cached slices are immutable
	// once built (copies share the backing arrays; a certification search
	// child rebuilds only into buffers it owns, once every copy sharing
	// them is dead — see cacheBanks); the setters below clear
	// the corresponding cache. nil = not cached. Mutating a bank directly
	// (ts.Coh.Set) instead of through the setters leaves a populated cache
	// stale — all step rules go through the setters.
	encCoh, encFwdb, encLocal []byte
}

// NewTState returns the initial thread state for a register file of n
// registers (all views 0, empty promise set, empty banks).
func NewTState(n int) *TState {
	return &TState{Regs: make([]RegVal, n)}
}

// Clone copies the state (see copyInto).
func (ts *TState) Clone() *TState {
	out := new(TState)
	ts.copyInto(out)
	return out
}

// copyInto overwrites dst with a copy of ts, reusing the capacity of dst's
// slices: the certification search refills dead children this way instead
// of allocating a fresh state per edge. The replace-only Prom and Xclb and
// the immutable bank-encoding caches are shared with ts.
func (ts *TState) copyInto(dst *TState) {
	*dst = TState{
		Prom:          ts.Prom,
		Regs:          append(dst.Regs[:0], ts.Regs...),
		Coh:           append(dst.Coh[:0], ts.Coh...),
		VROld:         ts.VROld,
		VWOld:         ts.VWOld,
		VRNew:         ts.VRNew,
		VWNew:         ts.VWNew,
		VCAP:          ts.VCAP,
		VRel:          ts.VRel,
		Fwdb:          append(dst.Fwdb[:0], ts.Fwdb...),
		Xclb:          ts.Xclb,
		Local:         append(dst.Local[:0], ts.Local...),
		BoundExceeded: ts.BoundExceeded,
		encCoh:        ts.encCoh,
		encFwdb:       ts.encFwdb,
		encLocal:      ts.encLocal,
	}
}

// CohView returns coh(l) (0 when untouched).
func (ts *TState) CohView(l lang.Loc) View { return ts.Coh.Get(l) }

// setCoh updates coh(l), invalidating the bank's cached encoding.
func (ts *TState) setCoh(l lang.Loc, v View) {
	ts.encCoh = nil
	ts.Coh.Set(l, v)
}

// setFwd updates fwdb(l), invalidating the bank's cached encoding.
func (ts *TState) setFwd(l lang.Loc, f FwdItem) {
	ts.encFwdb = nil
	ts.Fwdb.Set(l, f)
}

// setLocal updates the thread-private storage of l, invalidating the
// bank's cached encoding.
func (ts *TState) setLocal(l lang.Loc, rv RegVal) {
	ts.encLocal = nil
	ts.Local.Set(l, rv)
}

// Fwd returns fwdb(l) (zero item when untouched, per r15).
func (ts *TState) Fwd(l lang.Loc) FwdItem { return ts.Fwdb.Get(l) }

// Eval interprets a pure expression over the register file, returning the
// value and the join of the views of the registers read (Fig. 5, ⟦e⟧m).
func (ts *TState) Eval(e lang.Expr) (lang.Val, View) {
	switch e := e.(type) {
	case lang.Const:
		return e.V, 0
	case lang.RegRef:
		rv := ts.Regs[e.R]
		return rv.Val, rv.View
	case lang.BinOp:
		lv, lview := ts.Eval(e.L)
		rv, rview := ts.Eval(e.R)
		return e.Op.Apply(lv, rv), Join(lview, rview)
	default:
		panic(fmt.Sprintf("core: unknown expression %T", e))
	}
}

// String renders the state compactly for the interactive UI and debugging.
func (ts *TState) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prom=%v vrOld=%d vwOld=%d vrNew=%d vwNew=%d vCAP=%d vRel=%d",
		[]Time(ts.Prom), ts.VROld, ts.VWOld, ts.VRNew, ts.VWNew, ts.VCAP, ts.VRel)
	if ts.Xclb != nil {
		fmt.Fprintf(&b, " xclb=<t=%d,v=%d>", ts.Xclb.Time, ts.Xclb.View)
	}
	if len(ts.Coh) > 0 {
		b.WriteString(" coh={")
		for i, e := range ts.Coh {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%d:%d", e.Loc, e.V)
		}
		b.WriteString("}")
	}
	return b.String()
}

// Thread is a statement-continuation plus a thread state (Fig. 2:
// Thread = St × TState). The continuation is a stack of node indices into
// the thread's compiled Code; the top of the stack is the next node.
type Thread struct {
	Cont []int32
	TS   *TState
}

// NewThread returns a thread at the start of code.
func NewThread(code *lang.Code) *Thread {
	return &Thread{Cont: []int32{code.Root}, TS: NewTState(code.NumRegs)}
}

// Done reports whether the program has terminated (possibly with
// outstanding promises).
func (th *Thread) Done() bool { return len(th.Cont) == 0 }

// Clone copies the thread (see TState.copyInto).
func (th *Thread) Clone() *Thread {
	out := &Thread{TS: new(TState)}
	th.copyInto(out)
	return out
}

// copyInto overwrites dst, whose TS must be non-nil, with a copy of th,
// reusing dst's capacity.
func (th *Thread) copyInto(dst *Thread) {
	dst.Cont = append(dst.Cont[:0], th.Cont...)
	th.TS.copyInto(dst.TS)
}

// push pushes a node onto the continuation stack.
func (th *Thread) push(n int32) { th.Cont = append(th.Cont, n) }

// pop removes and returns the top node.
func (th *Thread) pop() int32 {
	n := th.Cont[len(th.Cont)-1]
	th.Cont = th.Cont[:len(th.Cont)-1]
	return n
}
