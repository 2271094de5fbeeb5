package core_test

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"promising/internal/core"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/workloads"
)

// certInput is one certification query: a thread of a compiled test
// under a memory, with its observed registers.
type certInput struct {
	env *core.Env
	th  *core.Thread
	mem *core.Memory
	obs []lang.Reg
}

// startThread is thread tid's phase-2 start state under mem: fresh
// registers, promise set = its messages in mem, silent steps folded.
func startThread(env *core.Env, mem *core.Memory) *core.Thread {
	th := core.NewThread(env.Code)
	for i, w := range mem.Msgs() {
		if w.TID == env.TID {
			th.TS.Prom = th.TS.Prom.Add(i + 1)
		}
	}
	core.Advance(env, th)
	return th
}

// namedTest looks name up in the catalog, then among the workloads.
func namedTest(t *testing.T, name string) *litmus.Test {
	t.Helper()
	if tst, ok := litmus.FindCatalog(name); ok {
		return tst
	}
	in, err := workloads.ParseID(lang.ARM, name)
	if err != nil {
		t.Fatal(err)
	}
	return in.Test
}

// certInputs lists the queries of a breadth-first promise-first phase 1
// over the test name, up to maxMems memories, so that later queries carry
// outstanding promises (fulfil edges) as well as fresh writes.
func certInputs(t *testing.T, name string, maxMems int) []certInput {
	t.Helper()
	cp, err := lang.Compile(namedTest(t, name).Prog)
	if err != nil {
		t.Fatal(err)
	}
	var out []certInput
	seen := map[string]bool{}
	queue := []*core.Memory{core.NewMemory(cp.Init)}
	for len(queue) > 0 && len(seen) < maxMems {
		mem := queue[0]
		queue = queue[1:]
		key := string(core.EncodeMemory(nil, mem, 0))
		if seen[key] {
			continue
		}
		seen[key] = true
		for tid := range cp.Threads {
			env := &core.Env{Arch: cp.Arch, Code: &cp.Threads[tid], TID: tid, Shared: cp.IsShared}
			obs := make([]lang.Reg, env.Code.NumRegs)
			for r := range obs {
				obs[r] = lang.Reg(r)
			}
			th := startThread(env, mem)
			for _, s := range steppedThreads(env, th, mem, 2) {
				out = append(out, certInput{env: env, th: s, mem: mem, obs: obs})
			}
			for _, w := range core.FindAndCertify(env, th, mem) {
				next := mem.Clone()
				next.Append(w)
				queue = append(queue, next)
			}
		}
	}
	return out
}

// steppedThreads returns th and the states it reaches in up to depth
// visible steps under mem, so that queries start with populated banks,
// exclusives and partly fulfilled promise sets.
func steppedThreads(env *core.Env, th *core.Thread, mem *core.Memory, depth int) []*core.Thread {
	out := []*core.Thread{th}
	if depth == 0 || th.Done() || th.TS.BoundExceeded {
		return out
	}
	id := th.Cont[len(th.Cont)-1]
	n := &env.Code.Nodes[id]
	var next []*core.Thread
	step := func(apply func(*core.Thread)) {
		child := th.Clone()
		apply(child)
		core.Advance(env, child)
		next = append(next, child)
	}
	switch n.Kind {
	case lang.NLoad:
		for _, rc := range core.ReadChoices(env, th, id, mem) {
			step(func(c *core.Thread) { core.ApplyRead(env, c, id, mem, rc.TS) })
		}
	case lang.NStore:
		for _, t := range core.FulfilChoices(env, th, id, mem) {
			step(func(c *core.Thread) { core.ApplyFulfil(env, c, id, mem, t) })
		}
	case lang.NRMW:
		for _, rc := range core.ReadChoices(env, th, id, mem) {
			if _, writes := core.RMWWriteVal(th.TS, n, rc.Val); !writes {
				step(func(c *core.Thread) { core.ApplyRMWNoWrite(env, c, id, mem, rc.TS) })
			}
			for _, tw := range core.RMWFulfilChoices(env, th, id, mem, rc.TS) {
				step(func(c *core.Thread) { core.ApplyRMW(env, c, id, mem, rc.TS, tw) })
			}
		}
	}
	for _, c := range next {
		out = append(out, steppedThreads(env, c, mem, depth-1)...)
	}
	return out
}

// deepCopy copies th without Thread.Clone.
func deepCopy(th *core.Thread) *core.Thread {
	ts := *th.TS
	ts.Prom, ts.Regs = slices.Clone(ts.Prom), slices.Clone(ts.Regs)
	ts.Coh, ts.Fwdb, ts.Local = slices.Clone(ts.Coh), slices.Clone(ts.Fwdb), slices.Clone(ts.Local)
	if ts.Xclb != nil {
		x := *ts.Xclb
		ts.Xclb = &x
	}
	return &core.Thread{Cont: slices.Clone(th.Cont), TS: &ts}
}

// sameThread compares two threads field by field, banks by content.
func sameThread(a, b *core.Thread) bool {
	x, y := a.TS, b.TS
	views := func(ts *core.TState) [6]core.View {
		return [6]core.View{ts.VROld, ts.VWOld, ts.VRNew, ts.VWNew, ts.VCAP, ts.VRel}
	}
	return slices.Equal(a.Cont, b.Cont) && slices.Equal(x.Prom, y.Prom) &&
		slices.Equal(x.Regs, y.Regs) && slices.Equal(x.Coh, y.Coh) &&
		slices.Equal(x.Fwdb, y.Fwdb) && slices.Equal(x.Local, y.Local) &&
		views(x) == views(y) && (x.Xclb == nil) == (y.Xclb == nil) &&
		(x.Xclb == nil || *x.Xclb == *y.Xclb) && x.BoundExceeded == y.BoundExceeded
}

// stateBytes encodes a query's inputs.
func stateBytes(in certInput) []byte {
	return core.EncodeMemory(core.EncodeThread(nil, in.th), in.mem, 0)
}

// certifyAll runs every query through each access path — the unified and
// the plain scoped search (each on a fresh cache, so every call searches),
// the deep shared-cache search, and a reach-only deep search — and renders
// the results. It fails the test if a call changes its inputs.
func certifyAll(t *testing.T, ins []certInput) []string {
	t.Helper()
	var out []string
	for i, in := range ins {
		var b strings.Builder
		before := stateBytes(in)
		// The encoding reads the banks through their cached encodings, so
		// an in-place write to a shared bank would not show in it; compare
		// against copies made here too, independent of Thread.Clone.
		th, msgs := deepCopy(in.th), slices.Clone(in.mem.Msgs())
		check := func(path string) {
			if after := stateBytes(in); !bytes.Equal(before, after) || !sameThread(th, in.th) || !slices.Equal(msgs, in.mem.Msgs()) {
				t.Fatalf("query %d: %s mutated its inputs", i, path)
			}
		}
		r := core.NewCertCache().CertifyAndComplete(in.env, in.th, in.mem, 0, in.obs, nil)
		check("CertifyAndComplete")
		finals := make([]string, len(r.Finals))
		for j, f := range r.Finals {
			finals[j] = fmt.Sprint(f)
		}
		slices.Sort(finals)
		fmt.Fprintf(&b, "unified %v %v %v %v;", r.Certified, sortedMsgs(r.Promises), finals, r.FinalsBound)
		s := core.Certify(in.env, in.th, in.mem, true)
		check("scoped Certify")
		fmt.Fprintf(&b, " scoped %v %v;", s.Certified, sortedMsgs(s.Promises))
		d := core.NewCertCache().Certify(in.env, in.th, in.mem, true)
		check("deep Certify")
		fmt.Fprintf(&b, " deep %v %v;", d.Certified, sortedMsgs(d.Promises))
		reach := core.NewCertCache().Certify(in.env, in.th, in.mem, false)
		check("reach-only Certify")
		fmt.Fprintf(&b, " reach %v", reach.Certified)
		out = append(out, b.String())
	}
	return out
}

func sortedMsgs(ms []core.Msg) []core.Msg {
	out := slices.Clone(ms)
	slices.SortFunc(out, func(a, b core.Msg) int {
		return cmp.Or(cmp.Compare(a.Loc, b.Loc), cmp.Compare(a.Val, b.Val), cmp.Compare(a.TID, b.TID))
	})
	return out
}

// TestCertifierReuseSafe certifies every query of test A, then of test B,
// then of A again: the second A pass runs on certifiers whose pooled memos
// and free lists B has warmed, and must reproduce the first pass exactly.
// Every call must also leave its input thread and memory unchanged (the
// documented "inputs are not mutated" contract).
func TestCertifierReuseSafe(t *testing.T) {
	for _, pair := range [][2]string{
		{"LSE-cas-winner", "XCL-atomicity"},
		{"MP+dmb+fwd", "CoWW"},
		{"IRIW+addrs", "PPOCA"},
		// Workloads with thread-local locations (the Local bank).
		{"SLC-1", "TL/opt-1"},
	} {
		a, b := certInputs(t, pair[0], 40), certInputs(t, pair[1], 40)
		t.Logf("%s: %d queries, %s: %d", pair[0], len(a), pair[1], len(b))
		first := certifyAll(t, a)
		certifyAll(t, b)
		again := certifyAll(t, a)
		for i := range first {
			if first[i] != again[i] {
				t.Errorf("%s query %d after %s:\n  first %s\n  again %s", pair[0], i, pair[1], first[i], again[i])
			}
		}
	}
}

// tl1AllocCeiling bounds the allocations of one TL-1 root
// CertifyAndComplete call at 1.5× the 21 measured with search children
// reused; cloning a thread per search edge took it to 93.
const tl1AllocCeiling = 32

// TestCertifyAllocCeiling gates the certification hot path's allocations:
// reintroducing a clone per search edge fails it.
func TestCertifyAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	in, err := workloads.ParseID(lang.ARM, "TL-1")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := lang.Compile(in.Test.Prog)
	if err != nil {
		t.Fatal(err)
	}
	env := &core.Env{Arch: cp.Arch, Code: &cp.Threads[0], TID: 0, Shared: cp.IsShared}
	mem := core.NewMemory(cp.Init)
	th := startThread(env, mem)
	obs := []lang.Reg{0}
	var cc *core.CertCache // uncached: every call searches
	allocs := testing.AllocsPerRun(20, func() {
		cc.CertifyAndComplete(env, th, mem, 0, obs, nil)
	})
	t.Logf("%.0f allocs per TL-1 root CertifyAndComplete", allocs)
	if allocs > tl1AllocCeiling {
		t.Errorf("%.0f allocs per call, ceiling %d", allocs, tl1AllocCeiling)
	}
}
