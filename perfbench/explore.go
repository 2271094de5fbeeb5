package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"promising/internal/core"
	"promising/internal/explore"
	"promising/internal/flat"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/workloads"
)

// Table 3 rows the promise-first explorer finishes exhaustively at
// workload scale; tinyTable3Rows is the smoke-test set.
var (
	table3Rows = []string{
		"TL-3", "TL/opt-2", "SLR-3", "SLC-3", "SLA-10", "PCM-3-3-3",
		"DQ-211-1-1", "QU-100-010-010", "QU/opt-100-010-000", "STC-100-010-010",
	}
	tinyTable3Rows = []string{"SLA-2", "PCS-1-1"}
)

// walkSteps is the length of the traced random walk over each table3
// program that times core's certification, successor, encode and intern
// entry points one call at a time.
const walkSteps = 40

// cellBackends maps each cell backend to its layer entry point and the
// span named after it; cells call the entry point directly so the span is
// the layer's.
var cellBackends = map[string]struct {
	span string
	run  litmus.Runner
}{
	"promising": {"explore.promise_first", explore.PromiseFirst},
	"naive":     {"explore.naive", explore.Naive},
	"flat":      {"flat.explore", flat.Explore},
}

// cellSpec names one (test, backend) cell before set-up builds it.
type cellSpec struct {
	ref     string // reference key: a workload row id or "catalog/<name>"
	backend string
}

func (s cellSpec) id() string { return s.backend + "/" + s.ref }

// cell is one compiled (test, backend) exploration with its expectation.
type cell struct {
	cellSpec
	test *litmus.Test
	cp   *lang.CompiledProgram
	spec *explore.ObsSpec
	want reference
}

// reference is a recorded outcome set: its size and the SHA-256 of its
// sorted formatted lines (litmus.FormatOutcomes).
type reference struct {
	Outcomes int    `json:"outcomes"`
	SHA256   string `json:"sha256"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// cellBench is the table3 and interleave workloads: every pass explores
// each cell exhaustively (one engine worker, default reductions) in a
// seeded order and checks verdict and outcome set.
type cellBench struct {
	cfg   config
	specs []cellSpec
	cells []*cell
	walk  bool // traced run also walks each program through core

	// Per-pass counters of the last pass, by backend.
	stats  map[string]*explore.ExploreStats
	states map[string]int
}

func newTable3(cfg config) bench {
	rows := table3Rows
	if cfg.tiny {
		rows = tinyTable3Rows
	}
	b := &cellBench{cfg: cfg, walk: true}
	for _, id := range rows {
		b.specs = append(b.specs, cellSpec{id, "promising"})
	}
	return b
}

func newInterleave(cfg config) bench {
	b := &cellBench{cfg: cfg}
	sym5, sym4, catalogN := "SYM-5", "SYM-4", 0
	if cfg.tiny {
		sym5, sym4, catalogN = "SYM-3", "SYM-2", 4
	}
	b.specs = []cellSpec{{sym5, "flat"}, {sym4, "flat"}, {sym5, "naive"}, {"TL-1", "naive"}}
	if cfg.tiny {
		b.specs[3] = cellSpec{"SLA-1", "naive"}
	}
	for i, e := range litmus.CatalogEntries() {
		if catalogN > 0 && i >= catalogN {
			break
		}
		for _, be := range []string{"flat", "naive"} {
			b.specs = append(b.specs, cellSpec{"catalog/" + e.Name, be})
		}
	}
	return b
}

// buildTest makes the test a reference key names.
func buildTest(ref string) (*litmus.Test, error) {
	if name, ok := strings.CutPrefix(ref, "catalog/"); ok {
		t, ok := litmus.FindCatalog(name)
		if !ok {
			return nil, fmt.Errorf("no catalog test %q", name)
		}
		return t, nil
	}
	in, err := workloads.ParseID(lang.ARM, ref)
	if err != nil {
		return nil, err
	}
	return in.Test, nil
}

func (b *cellBench) setup(r *run) error {
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	built := map[string]*cell{}
	for _, s := range b.specs {
		c := &cell{cellSpec: s}
		if prev, ok := built[s.ref]; ok {
			c.test, c.cp, c.spec = prev.test, prev.cp, prev.spec
		} else {
			end := r.span("workloads.build", s.ref)
			c.test, err = buildTest(s.ref)
			end()
			if err != nil {
				return err
			}
			end = r.span("lang.compile", s.ref)
			c.cp, err = lang.Compile(c.test.Prog)
			end()
			if err != nil {
				return fmt.Errorf("%s: %w", s.ref, err)
			}
			c.spec = c.test.Spec()
			built[s.ref] = c
		}
		want, ok := refs[s.ref]
		if !ok {
			return fmt.Errorf("no recorded reference for %s (run with --record)", s.ref)
		}
		c.want = want
		b.cells = append(b.cells, c)
	}
	if b.cfg.inject {
		b.cells[0].want.SHA256 = strings.Repeat("0", 64)
	}
	// Warm-up: explore the last cell once, verified like a pass.
	c := b.cells[len(b.cells)-1]
	b.verify(r, c, b.explore(r, c))
	return nil
}

// explore runs one cell with one engine worker and default reductions.
func (b *cellBench) explore(r *run, c *cell) *explore.Result {
	opts := explore.DefaultOptions()
	opts.Parallelism = 1
	opts.MaxStates = 5_000_000 // a runaway guard: an aborted cell fails
	be := cellBackends[c.backend]
	end := r.span(be.span, c.id())
	c0 := cpuTime()
	res := be.run(c.cp, c.spec, opts)
	r.op(c.id(), cpuTime()-c0, false)
	end()
	return res
}

func (b *cellBench) pass(r *run, n int) error {
	rng := rand.New(rand.NewSource(b.cfg.seed*7919 + int64(n)))
	b.stats = map[string]*explore.ExploreStats{}
	b.states = map[string]int{}
	for _, i := range rng.Perm(len(b.cells)) {
		c := b.cells[i]
		// Each cell follows a calibration sample and starts from a
		// collected heap, so a small cell's time does not depend on which
		// large cell the seeded order put first.
		r.calibrate()
		runtime.GC()
		res := b.explore(r, c)
		end := r.span("litmus.format_outcomes", c.id())
		b.verify(r, c, res)
		end()
		st := b.stats[c.backend]
		if st == nil {
			st = &explore.ExploreStats{}
			b.stats[c.backend] = st
		}
		addStats(st, res.Stats)
		b.states[c.backend] += res.States
	}
	return nil
}

// verify gates one cell: complete, the expected verdict, and the recorded
// outcome set.
func (b *cellBench) verify(r *run, c *cell, res *explore.Result) {
	id := c.id()
	if res.Aborted {
		r.check(false, "%s: exploration aborted after %d states", id, res.States)
		return
	}
	if c.test.Cond != nil && c.test.Expect != litmus.ExpectUnknown {
		allowed := litmus.Satisfiable(c.test.Cond, c.spec, res)
		want := c.test.Expect == litmus.ExpectAllowed
		r.check(allowed == want, "%s: verdict allowed=%t, expected %s", id, allowed, c.test.Expect)
	}
	got := outcomeRef(c, res)
	r.check(got == c.want, "%s: outcome set %d/%s, reference %d/%s", id,
		got.Outcomes, got.SHA256[:12], c.want.Outcomes, c.want.SHA256[:12])
}

func outcomeRef(c *cell, res *explore.Result) reference {
	lines := litmus.FormatOutcomes(c.spec, res, c.test.Prog)
	sum := sha256.Sum256([]byte(lines))
	return reference{Outcomes: len(res.Outcomes), SHA256: hex.EncodeToString(sum[:])}
}

func addStats(dst *explore.ExploreStats, s explore.ExploreStats) {
	dst.Interned += s.Interned
	dst.CertHits += s.CertHits
	dst.CertMisses += s.CertMisses
	dst.CertEntries += s.CertEntries
	dst.SymmetryClasses += s.SymmetryClasses
	dst.SymmetryHits += s.SymmetryHits
	dst.PrunedStates += s.PrunedStates
}

func (b *cellBench) layers(r *run, m map[string]float64) {
	passes := float64(len(r.tr.named("bench.pass")))
	busy := func(name string) float64 { return sum(r.tr.named(name)).Seconds() / passes }
	// Certification counters of every certifying backend in the pass.
	var cert explore.ExploreStats
	for _, be := range []string{"promising", "naive"} {
		if st := b.stats[be]; st != nil {
			addStats(&cert, *st)
		}
	}
	if cert.CertHits+cert.CertMisses > 0 {
		m["core.cert.hits"] = float64(cert.CertHits)
		m["core.cert.misses"] = float64(cert.CertMisses)
		m["core.cert.hit_rate"] = cert.CertHitRate()
		m["core.cert.entries"] = float64(cert.CertEntries)
	}
	if st := b.stats["promising"]; st != nil {
		m["explore.promise_first.interned"] = float64(st.Interned)
		m["explore.promise_first.busy_s"] = busy("explore.promise_first")
		m["explore.promise_first.states"] = float64(b.states["promising"])
	}
	if st := b.stats["naive"]; st != nil {
		m["explore.naive.busy_s"] = busy("explore.naive")
		m["explore.naive.states"] = float64(b.states["naive"])
	}
	var sym explore.ExploreStats
	for _, be := range []string{"promising", "naive"} {
		if st := b.stats[be]; st != nil {
			addStats(&sym, *st)
		}
	}
	m["explore.symmetry.hits"] = float64(sym.SymmetryHits)
	m["explore.symmetry.classes"] = float64(sym.SymmetryClasses)
	m["explore.pruned_states"] = float64(sym.PrunedStates)
	if st := b.stats["flat"]; st != nil {
		m["flat.busy_s"] = busy("flat.explore")
		m["flat.states"] = float64(b.states["flat"])
		m["flat.symmetry_hits"] = float64(st.SymmetryHits)
		m["flat.pruned_states"] = float64(st.PrunedStates)
	}
	m["lang.compile_us"] = meanUS(r.tr.named("lang.compile"))
	if b.walk {
		b.walkCore(r, m)
	}
}

// walkCore times core's entry points one call at a time along a seeded
// random walk over each program: FindAndCertify for every thread,
// SuccessorsCached, AppendState and Interner.Intern per step. It runs
// under its own root span, outside the set-up/pass split.
func (b *cellBench) walkCore(r *run, m map[string]float64) {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	steps := walkSteps
	if b.cfg.tiny {
		steps = 5
	}
	r.root = r.tr.start("walk", "", -1)
	for _, c := range b.cells {
		cc := core.NewCertCache()
		in := core.NewInterner()
		mach := core.NewMachine(c.cp)
		var buf []byte
		for i := 0; i < steps; i++ {
			for tid := range mach.Threads {
				end := r.span("core.find_and_certify", c.ref)
				cc.FindAndCertify(mach.Env(tid), mach.Threads[tid], mach.Mem)
				end()
			}
			end := r.span("core.successors", c.ref)
			succs := mach.SuccessorsCached(true, cc)
			end()
			end = r.span("core.encode", c.ref)
			buf = mach.AppendState(buf[:0])
			end()
			end = r.span("core.intern", c.ref)
			in.Intern(buf)
			end()
			if len(succs) == 0 {
				mach = core.NewMachine(c.cp)
				continue
			}
			mach = succs[rng.Intn(len(succs))].M
		}
	}
	r.tr.end(r.root)
	certify, succ := r.tr.named("core.find_and_certify"), r.tr.named("core.successors")
	m["core.certify_us"] = meanUS(certify)
	m["core.certify_calls"] = float64(len(certify))
	m["core.successors_us"] = meanUS(succ)
	m["core.successors_calls"] = float64(len(succ))
	m["core.encode_us"] = meanUS(r.tr.named("core.encode"))
	m["core.intern_us"] = meanUS(r.tr.named("core.intern"))
}

// recordReferences explores every table3 and interleave test (full and
// tiny sets) with the promise-first explorer and writes their outcome
// references. Cells of the other backends are checked against these in
// every pass, so the file doubles as a cross-model check.
func recordReferences(path string) error {
	refs := map[string]reference{}
	for _, tiny := range []bool{false, true} {
		for _, mk := range []func(config) bench{newTable3, newInterleave} {
			b := mk(config{tiny: tiny}).(*cellBench)
			for _, s := range b.specs {
				if _, ok := refs[s.ref]; ok {
					continue
				}
				t, err := buildTest(s.ref)
				if err != nil {
					return err
				}
				cp, err := lang.Compile(t.Prog)
				if err != nil {
					return err
				}
				c := &cell{test: t, cp: cp, spec: t.Spec()}
				res := explore.PromiseFirst(cp, c.spec, explore.DefaultOptions())
				if res.Aborted {
					return fmt.Errorf("%s: aborted", s.ref)
				}
				refs[s.ref] = outcomeRef(c, res)
				fmt.Fprintf(os.Stderr, "%-28s %5d outcomes %8d states\n", s.ref, len(res.Outcomes), res.States)
			}
		}
	}
	raw, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
