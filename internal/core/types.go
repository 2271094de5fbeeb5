// Package core implements the Promising-ARM/RISC-V operational model of
// Pulte et al. (PLDI 2019): timestamps and views, the write-history memory,
// thread states with promise sets, the thread-local step rules of Fig. 5
// (including release/acquire, weak fences and load/store exclusives from
// §A.3), promise steps, and certification — both the declarative predicate
// (rule r24) and the algorithmic find_and_certify of §B.
package core

import (
	"fmt"
	"sort"
	"strings"

	"promising/internal/lang"
)

// Time is a timestamp: an index into the message history, with 0 denoting
// the initial writes (Fig. 2: t ∈ T = N). Message i of Memory has
// timestamp i+1.
type Time = int

// View is a timestamp used as an ordering requirement (ν ∈ V = T): the
// write at position ν and its predecessors have been "seen".
type View = Time

// Join returns the maximum of two views (ν1 ⊔ ν2).
func Join(a, b View) View {
	if a > b {
		return a
	}
	return b
}

// JoinIf returns v when cond holds and 0 otherwise (the "c ? ν" notation).
func JoinIf(cond bool, v View) View {
	if cond {
		return v
	}
	return 0
}

// Msg is a write message ⟨x := v⟩_tid.
type Msg struct {
	Loc lang.Loc
	Val lang.Val
	TID int
}

// Memory is the history of propagated writes, in propagation order.
// Memory[i] has timestamp i+1.
type Memory struct {
	msgs []Msg
	// init supplies per-location initial values (timestamp 0); nil means 0
	// everywhere, matching the paper's initial state.
	init map[lang.Loc]lang.Val
}

// NewMemory returns an empty memory with the given initial values.
func NewMemory(init map[lang.Loc]lang.Val) *Memory {
	return &Memory{init: init}
}

// Len returns the number of propagated messages, which is also the largest
// valid timestamp.
func (m *Memory) Len() int { return len(m.msgs) }

// MaxTS returns the maximal timestamp of the memory (0 when empty).
func (m *Memory) MaxTS() Time { return len(m.msgs) }

// At returns the message at timestamp t (1-based); it panics for t outside
// [1, Len()], since timestamp 0 is the distinguished initial state.
func (m *Memory) At(t Time) Msg {
	return m.msgs[t-1]
}

// InitVal returns the initial (timestamp 0) value of location l.
func (m *Memory) InitVal(l lang.Loc) lang.Val {
	return m.init[l]
}

// Read implements read(M, l, t): the value of reading l at timestamp t, or
// ok=false when the message at t is to a different location (Fig. 5).
func (m *Memory) Read(l lang.Loc, t Time) (lang.Val, bool) {
	if t == 0 {
		return m.InitVal(l), true
	}
	if t < 1 || t > len(m.msgs) {
		return 0, false
	}
	msg := m.msgs[t-1]
	if msg.Loc != l {
		return 0, false
	}
	return msg.Val, true
}

// Append adds a message at the next timestamp and returns that timestamp.
func (m *Memory) Append(w Msg) Time {
	m.msgs = append(m.msgs, w)
	return len(m.msgs)
}

// Truncate drops messages above timestamp t (used to undo speculative
// extensions during certification search).
func (m *Memory) Truncate(t Time) { m.msgs = m.msgs[:t] }

// Clone returns a deep copy sharing the (immutable) init map.
func (m *Memory) Clone() *Memory {
	out := new(Memory)
	m.copyInto(out)
	return out
}

// copyInto overwrites dst with a copy of m, reusing dst's capacity.
func (m *Memory) copyInto(dst *Memory) {
	dst.msgs = append(dst.msgs[:0], m.msgs...)
	dst.init = m.init
}

// NoWriteTo reports that no message in the half-open timestamp interval
// (lo, hi] is a write to l: the coherence side condition of the read rule
// (∀t'. lo < t' ≤ hi ⇒ M(t').loc ≠ l).
func (m *Memory) NoWriteTo(l lang.Loc, lo, hi Time) bool {
	if hi > len(m.msgs) {
		hi = len(m.msgs)
	}
	for t := lo + 1; t <= hi; t++ {
		if m.msgs[t-1].Loc == l {
			return false
		}
	}
	return true
}

// Atomic implements atomic(M, l, tid, tr, tw) (§A.3): an exclusive write to
// l at timestamp tw by tid is atomic with its paired exclusive read at
// timestamp tr if, whenever the read message was also to l, every message
// to l strictly between tr and tw is by tid.
func (m *Memory) Atomic(l lang.Loc, tid int, tr, tw Time) bool {
	if tr != 0 {
		if tr > len(m.msgs) || m.msgs[tr-1].Loc != l {
			return true // the load exclusive was to a different location
		}
	}
	// tr == 0 denotes the initial write to every location, in particular l.
	for t := tr + 1; t < tw; t++ {
		if t >= 1 && t <= len(m.msgs) {
			msg := m.msgs[t-1]
			if msg.Loc == l && msg.TID != tid {
				return false
			}
		}
	}
	return true
}

// LastWriteTo returns the final value of l (for final-memory observations).
func (m *Memory) LastWriteTo(l lang.Loc) lang.Val {
	for i := len(m.msgs) - 1; i >= 0; i-- {
		if m.msgs[i].Loc == l {
			return m.msgs[i].Val
		}
	}
	return m.InitVal(l)
}

// Msgs exposes the message slice (read-only by convention).
func (m *Memory) Msgs() []Msg { return m.msgs }

// String renders the memory like the paper: [1: ⟨x := 37⟩1; 2: ⟨y := 42⟩1].
func (m *Memory) String() string {
	var b strings.Builder
	b.WriteString("[")
	for i, w := range m.msgs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d:<%d:=%d>@T%d", i+1, w.Loc, w.Val, w.TID)
	}
	b.WriteString("]")
	return b.String()
}

// RegVal is a value-view pair v@ν stored in a register (rule r8).
type RegVal struct {
	Val  lang.Val
	View View
}

// FwdItem is a forward-bank entry (rule r13): the timestamp of the last
// write to a location by this thread, the joined view of that write's
// address and data inputs, and whether it was exclusive.
type FwdItem struct {
	Time Time
	View View
	Xcl  bool
}

// XclItem is the exclusives bank (ρ8): the timestamp the last load
// exclusive read from, and its post-view.
type XclItem struct {
	Time Time
	View View
}

// PromSet is the set of outstanding promised timestamps of a thread,
// maintained sorted ascending.
type PromSet []Time

// Has reports membership.
func (p PromSet) Has(t Time) bool {
	i := sort.SearchInts(p, t)
	return i < len(p) && p[i] == t
}

// Add returns the set with t inserted (no-op when present).
func (p PromSet) Add(t Time) PromSet {
	i := sort.SearchInts(p, t)
	if i < len(p) && p[i] == t {
		return p
	}
	out := make(PromSet, 0, len(p)+1)
	out = append(out, p[:i]...)
	out = append(out, t)
	return append(out, p[i:]...)
}

// Remove returns the set without t. Like Add it never writes through p,
// so removing the smallest or largest element returns a subslice of p.
func (p PromSet) Remove(t Time) PromSet {
	i := sort.SearchInts(p, t)
	switch {
	case i >= len(p) || p[i] != t:
		return p
	case i == 0:
		return p[1:]
	case i == len(p)-1:
		return p[:i:i]
	}
	out := make(PromSet, 0, len(p)-1)
	out = append(out, p[:i]...)
	return append(out, p[i+1:]...)
}
