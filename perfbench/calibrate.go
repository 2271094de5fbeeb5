package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Calibration. Other tenants of the machine change its speed. On a
// shared 2-vCPU KVM guest the vCPU flips between a fast and a slow mode
// (a fixed Go loop took 1.8 times as long in the slow one) every few tens
// of milliseconds, and the share of time spent slow drifts over minutes,
// so raw times of the same code taken in two runs differ by a third or
// more. Two corrections make them agree:
//
//   - Serial work is timed as the process's CPU time (all threads, so
//     garbage collection on another CPU counts), which leaves out the time
//     the hypervisor gave the vCPU to someone else. Only the daemon's
//     request latencies, which overlap, stay wall-clock times.
//   - Every time is scaled by the speed of a fixed calibration kernel,
//     sampled on the same clock between the units of work throughout the
//     run: a time t measured in a run whose samples average k is reported
//     as t × calRef / k. The average over a whole run, not a sample next
//     to each unit, is what tracks the slow share; single samples only
//     see the mode of the moment.
//
// Reported timings are therefore in reference seconds: seconds on a
// machine where the kernel takes calRef, which is about its time on the
// machine the constant was measured on. The kernel is plain Go of the
// workloads' kind: it inserts into a map, allocates small slices and
// sorts. Of four kernels tried against repeated promise-first explorations
// on a noisy 2-vCPU guest, it tracked them best (correlation 0.98 over
// 10-second windows; an allocation-free variant with random table reads
// reached 0.74 to 0.92). It lives here and nowhere else: a change to the
// code under test cannot move it. Its allocations are counted and left out
// of the allocation metrics.
const calRef = 2.9e-3 // s; the kernel's mean CPU time on a 2-vCPU Xeon KVM guest

// A sample is the mean of calReps kernel runs after one untimed run that
// warms the allocator and caches.
const calReps = 3

// Kernel size: iterations and key space.
const (
	calIters = 20000
	calKeys  = 8000
)

// calKernel runs the calibration kernel.
type calKernel struct {
	sink uint64
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// once runs the kernel a single time.
func (k *calKernel) once() {
	m := make(map[uint64][]byte, 1024)
	var keys []uint64
	x := uint64(88172645463325252)
	for i := 0; i < calIters; i++ {
		x = xorshift(x)
		key := x % calKeys
		if v, ok := m[key]; ok {
			k.sink += uint64(len(v))
			continue
		}
		b := make([]byte, 8+x%40)
		b[0] = byte(x)
		m[key] = b
		keys = append(keys, key)
	}
	slices.Sort(keys)
	k.sink += keys[len(keys)/2]
}

// sample returns the kernel's mean time on the calling thread's CPU
// clock and on the wall clock. The thread's clock leaves out background
// work of the runtime on other threads (the scavenger returning a large
// cell's memory, say).
func (k *calKernel) sample() (cpu, wall time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k.once()
	c0, w0 := threadCPUTime(), time.Now()
	for range calReps {
		k.once()
	}
	return (threadCPUTime() - c0) / calReps, time.Since(w0) / calReps
}

// cpuTime is the CPU time the process has used, all threads together,
// and threadCPUTime that of the calling thread. Both exclude the time the
// hypervisor stole. They read the clocks with clock_gettime, which counts
// the running thread up to the call; getrusage would lag by up to a tick.
func cpuTime() time.Duration { return clockTime(clockProcessCPUTime) }

func threadCPUTime() time.Duration { return clockTime(clockThreadCPUTime) }

// Linux clock ids.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux this runs on
	}
	return time.Duration(ts.Nano())
}

// stamp is a reading of both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// mark is a point in a run: both clocks, and the time calibration had
// taken on each so far.
type mark struct {
	at              stamp
	calCPU, calWall time.Duration
}

func (r *run) mark() mark { return mark{now(), r.calSpentCPU, r.calSpentWall} }

// since is the time from m to now on each clock, calibration left out.
func (r *run) since(m mark) (cpu, wall time.Duration) {
	n := now()
	cpu = n.cpu - m.at.cpu - (r.calSpentCPU - m.calCPU)
	wall = n.wall.Sub(m.at.wall) - (r.calSpentWall - m.calWall)
	return cpu, wall
}

// calibrate takes a calibration sample. Workloads call it between units
// of work, and measure around every set-up and pass.
func (r *run) calibrate() {
	var before, after runtime.MemStats
	s := now()
	runtime.ReadMemStats(&before)
	cpu, wall := r.kernel.sample()
	runtime.ReadMemStats(&after)
	n := now()
	r.calCPU = append(r.calCPU, cpu.Seconds())
	r.calWall = append(r.calWall, wall.Seconds())
	r.calSpentCPU += n.cpu - s.cpu
	r.calSpentWall += n.wall.Sub(s.wall)
	r.calAllocB += after.TotalAlloc - before.TotalAlloc
	r.calAllocN += after.Mallocs - before.Mallocs
}

// factors turn the run's CPU and wall times into reference seconds: calRef
// over the kernel's mean time on that clock, the slowest and fastest tenth
// of samples left out.
func (r *run) factors() (cpu, wall float64) {
	return calRef / trimmedMean(r.calCPU), calRef / trimmedMean(r.calWall)
}

// trimmedMean is the mean of v without its lowest and highest tenth.
func trimmedMean(v []float64) float64 {
	s := sorted(v)
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}
