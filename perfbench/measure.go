package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// bench is one workload: seeded set-up, then verified passes.
type bench interface {
	// setup builds the workload's inputs (compiling, reference verdicts,
	// server start and warm-up). A run sets up several fresh values and
	// times each; the passes use the last.
	setup(r *run) error
	// pass runs one verified pass; n counts passes from 0.
	pass(r *run, n int) error
	// layers adds the per-layer metrics of a traced run.
	layers(r *run, m map[string]float64)
}

// run is the state one measurement shares with its workload.
type run struct {
	cfg  config
	tr   *tracer // nil when untraced
	root int     // the open setup or pass span

	// Calibration: the kernel, its samples (seconds per run on the
	// thread's CPU clock and on the wall clock) and the time calibrating
	// took on the process's clocks, and what the kernel allocated.
	kernel                    *calKernel
	calCPU, calWall           []float64
	calSpentCPU, calSpentWall time.Duration
	calAllocB, calAllocN      uint64

	mu        sync.Mutex
	lat       []latency // per-program latencies of this pass
	attempted int
	failed    int
	failures  []string
	notes     []string
}

// span opens a child of the current setup/pass span and returns its closer.
func (r *run) span(name, req string) func() {
	if r.tr == nil {
		return func() {}
	}
	id := r.tr.start(name, req, r.root)
	return func() { r.tr.end(id) }
}

// latency is the time checking one program took, on the CPU or the wall
// clock. The key names the program; every pass checks the same ones.
type latency struct {
	key  any
	d    time.Duration
	wall bool
}

// op records the latency of checking one program.
func (r *run) op(key any, d time.Duration, wall bool) {
	r.mu.Lock()
	r.lat = append(r.lat, latency{key, d, wall})
	r.mu.Unlock()
}

// check counts one verified operation, failing it when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// measurement is what one (traced or untraced) half of a run measured.
// Times are raw; endToEnd scales them to reference seconds.
type measurement struct {
	r        *run
	b        bench
	setups   []float64   // CPU seconds per set-up
	passes   []float64   // CPU seconds per pass
	wall     []float64   // wall seconds per pass, for the report
	lat      [][]latency // per-program latencies, by pass
	allocB   []float64   // bytes allocated per pass
	allocN   []float64   // allocations per pass
	gcCycles float64     // GC cycles during passes
	gcPause  float64     // GC pause seconds during passes
	peakHeap []float64   // peak heap object bytes per pass
	programs int         // programs checked over all passes
}

// setupReps is how many times a run sets up.
const setupReps = 11

// measure sets the workload up setupReps times, then runs verified passes
// until `seconds` have passed (at least one; the last pass may run over).
// A calibration sample follows every set-up and precedes every pass, and
// the workload takes more between its units of work; see calibrate.go.
func measure(cfg config, traced bool, seconds float64) (*measurement, error) {
	heap := startHeapSampler()
	defer heap.stop()
	m := &measurement{}
	r := &run{cfg: cfg, kernel: &calKernel{}}
	if traced {
		r.tr = newTracer()
	}
	m.r = r
	r.calibrate()
	for i := 0; i < setupReps; i++ {
		b := newBench(cfg)
		r.root = r.tr.start("setup", fmt.Sprintf("setup-%d", i), -1)
		at := r.mark()
		err := b.setup(r)
		cpu, _ := r.since(at)
		m.setups = append(m.setups, cpu.Seconds())
		r.tr.end(r.root)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.calibrate()
		runtime.GC() // the kernel's garbage, so the next set-up does not collect it
		m.b = b
	}
	var before, after runtime.MemStats
	begin := time.Now()
	for n := 0; ; n++ {
		r.calibrate()
		runtime.GC()
		runtime.ReadMemStats(&before)
		heap.reset()
		r.root = r.tr.start("bench.pass", fmt.Sprintf("pass-%d", n), -1)
		r.lat = nil
		calB, calN := r.calAllocB, r.calAllocN
		at := r.mark()
		err := m.b.pass(r, n)
		cpu, wall := r.since(at)
		r.tr.end(r.root)
		runtime.ReadMemStats(&after)
		m.peakHeap = append(m.peakHeap, heap.read())
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n, err)
		}
		m.programs += len(r.lat)
		m.lat = append(m.lat, r.lat)
		m.passes = append(m.passes, cpu.Seconds())
		m.wall = append(m.wall, wall.Seconds())
		m.allocB = append(m.allocB, float64(after.TotalAlloc-before.TotalAlloc-(r.calAllocB-calB)))
		m.allocN = append(m.allocN, float64(after.Mallocs-before.Mallocs-(r.calAllocN-calN)))
		m.gcCycles += float64(after.NumGC - before.NumGC)
		m.gcPause += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		if time.Since(begin).Seconds() >= seconds {
			break
		}
	}
	return m, nil
}

// endToEnd computes the end-to-end metrics and their sample counts, and
// the raw figures the report keeps next to them. Every timing is in
// reference seconds (see calibrate.go). A set-up or a check of a short
// program can fall wholly in a slow or a fast phase of the machine, so
// its times are bimodal: their mean, like the kernel's, follows the share
// of slow time, where a median would flip between the two modes. So
// setup_s and pass_s are means over set-ups and passes with the slowest
// and fastest tenth left out (trimmedMean); every pass checks the same
// programs, so a program's latency is such a mean over passes, and p50_ms
// and tail_ms are taken over those — the tail as the mean of the slowest
// tenth rather than a quantile, which would jump between neighbouring
// programs of very different sizes.
func (m *measurement) endToEnd() (vals map[string]float64, samples map[string]int, raw map[string]float64) {
	fcpu, fwall := m.r.factors()
	byProgram := map[any][]float64{}
	for _, pass := range m.lat {
		for _, l := range pass {
			f := fcpu
			if l.wall {
				f = fwall
			}
			byProgram[l.key] = append(byProgram[l.key], l.d.Seconds()*1e3*f)
		}
	}
	var lat []float64
	for _, v := range byProgram {
		lat = append(lat, trimmedMean(v))
	}
	sort.Float64s(lat)
	pass := trimmedMean(m.passes) * fcpu
	vals = map[string]float64{
		"setup_s":        trimmedMean(m.setups) * fcpu,
		"pass_s":         pass,
		"programs_per_s": float64(m.programs) / float64(len(m.passes)) / pass,
		"p50_ms":         quantile(lat, 0.5),
		"tail_ms":        tailMean(lat),
		"alloc_bytes":    median(m.allocB),
		"allocs":         median(m.allocN),
		"peak_heap_mb":   median(m.peakHeap) / (1 << 20),
	}
	samples = map[string]int{"setup_s": len(m.setups), "passes": len(m.passes), "programs": m.programs,
		"calibration": len(m.r.calCPU)}
	raw = map[string]float64{
		"setup_cpu_s":    trimmedMean(m.setups),
		"pass_cpu_s":     trimmedMean(m.passes),
		"pass_wall_s":    trimmedMean(m.wall),
		"kernel_cpu_ms":  trimmedMean(m.r.calCPU) * 1e3,
		"kernel_wall_ms": trimmedMean(m.r.calWall) * 1e3,
		"calref_ms":      calRef * 1e3,
	}
	return vals, samples, raw
}

// heapSampler polls the heap's object bytes (live and not yet swept)
// every 2ms and keeps the highest value since the last reset.
type heapSampler struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.reset()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				h.observe()
			case <-h.done:
				return
			}
		}
	}()
	return h
}

func heapObjects() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func (h *heapSampler) observe() {
	v := heapObjects()
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.peak.Store(heapObjects()) }

// read returns the peak since the last reset, in bytes.
func (h *heapSampler) read() float64 {
	h.observe()
	return float64(h.peak.Load())
}

// stop ends the polling goroutine and waits for it.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// sorted returns a sorted copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of unsorted values (0 for none).
func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// quantile of sorted values, interpolating between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// tailMean is the mean of the slowest tenth (at least one) of sorted values.
func tailMean(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := max(1, len(sorted)/10)
	t := 0.0
	for _, v := range sorted[len(sorted)-k:] {
		t += v
	}
	return t / float64(k)
}

func sum(v []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range v {
		t += d
	}
	return t
}

// meanUS is the mean duration in microseconds (0 for none).
func meanUS(v []time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	return float64(sum(v)) / float64(len(v)) / 1e3
}

// quantileMS is a duration quantile in milliseconds.
func quantileMS(v []time.Duration, q float64) float64 {
	s := make([]float64, len(v))
	for i, d := range v {
		s[i] = float64(d) / 1e6
	}
	sort.Float64s(s)
	return quantile(s, q)
}
