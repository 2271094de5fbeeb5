package flat

import (
	"promising/internal/explore"
	"promising/internal/lang"
)

// Explore runs the flat model exhaustively over all micro-step
// interleavings, deduplicating states. It satisfies the litmus.Runner
// signature and runs on explore.Interleave, the interleaving driver it
// shares with the naive explorer (Options.Parallelism selects the worker
// count).
// Options.Certify is ignored (the flat model has no certification).
// CollectWitnesses records, per outcome, the micro-step interleaving that
// first reached it as a native witness (explore.Witness.Native) — the
// unminimized fallback of the witness layer, since flat steps are not
// promising-machine labels and cannot go through the replay validator. It
// also forces reductions off, keeping the effective-reduction stamp
// consistent across backends, and refuses checkpoints (traces do not
// survive a snapshot; Result.CheckpointRefused reports the refusal).
//
// Both reductions apply here: states deduplicate on their thread-symmetry
// canonical key, and independence pruning sleeps thread families across
// steps with disjoint memory footprints (machine.dependsOn). A flat
// micro-step touches at most one location — loads satisfying from memory
// read it, stores performing write it — and every other step is
// thread-local, so the footprint test is a single-address comparison
// against each family's pending accesses.
func Explore(cp *lang.CompiledProgram, spec *explore.ObsSpec, opts explore.Options) *explore.Result {
	res, _ := run(cp, spec, opts, nil)
	return res
}

func run(cp *lang.CompiledProgram, spec *explore.ObsSpec, opts explore.Options, snap *explore.Snapshot) (*explore.Result, error) {
	return explore.Interleave(snapBackend, cp, spec, flatMachine{cp: cp, spec: spec, desc: opts.CollectWitnesses}, nil, opts, snap)
}

type flatStep = explore.Step[*machine, string]

// flatMachine is the flat model as an explore.Interleaving. A step's label
// is its one-line rendering, stamped only when desc is set.
type flatMachine struct {
	cp   *lang.CompiledProgram
	spec *explore.ObsSpec
	desc bool
}

func (f flatMachine) Root() *machine {
	m := newMachine(f.cp)
	m.desc = f.desc
	return m
}

func (f flatMachine) Decode(b []byte) (*machine, error) {
	m, err := decodeMachine(f.cp, b)
	if m != nil {
		m.desc = f.desc
	}
	return m, err
}

func (flatMachine) AppendKey(b []byte, m *machine) []byte { return m.appendKey(b) }

func (flatMachine) AppendThreadKey(b []byte, m *machine, tid int) []byte {
	return m.appendThreadKey(b, tid)
}

func (flatMachine) AppendMemKey(b []byte, m *machine, tidMap []int) []byte {
	return m.appendMemKey(b, tidMap)
}

func (flatMachine) Successors(dst []flatStep, m *machine, tid int) []flatStep {
	m.threadSuccessors(tid, func(s *machine) {
		dst = append(dst, flatStep{To: s, Label: s.stepDesc})
	})
	return dst
}

func (flatMachine) BoundExceeded(m *machine) bool {
	for _, t := range m.threads {
		if t.bound {
			return true
		}
	}
	return false
}

// Final records an outcome only at a stuck, completed state: a completed
// state can still resolve the address or data of a store exclusive that
// decided to fail, and only the state after those steps counts.
func (flatMachine) Final(m *machine, stuck bool) bool { return stuck && m.done() }

func (f flatMachine) Observe(m *machine) explore.Outcome { return observe(f.cp, f.spec, m) }

func (flatMachine) Witness(trace []string) *explore.Witness { return &explore.Witness{Native: trace} }

// Sleepable admits every enabled family: Wake's per-step footprint test
// alone decides which sleepers a step disturbs.
func (flatMachine) Sleepable([]flatStep) bool { return true }

// Wake wakes the sleepers with a pending access the step's memory
// footprint collides with (machine.dependsOn); thread-local steps wake
// none.
func (flatMachine) Wake(m *machine, st flatStep, sleep uint32) uint32 {
	s := st.To
	if !s.stepRead && !s.stepWrite {
		return sleep
	}
	for j := range m.threads {
		if sleep&(1<<j) != 0 && m.dependsOn(j, s.stepAddr, s.stepRead, s.stepWrite) {
			sleep &^= 1 << j
		}
	}
	return sleep
}

// observe projects a completed machine onto the observation spec.
func observe(cp *lang.CompiledProgram, spec *explore.ObsSpec, m *machine) explore.Outcome {
	var o explore.Outcome
	for _, ro := range spec.Regs {
		t := m.threads[ro.TID]
		w := t.lastWriter[ro.Reg]
		if w < 0 {
			o.Regs = append(o.Regs, 0)
		} else {
			o.Regs = append(o.Regs, t.provValue(w))
		}
	}
	for _, l := range spec.Locs {
		o.Mem = append(o.Mem, m.mem.current(l))
	}
	return o
}
