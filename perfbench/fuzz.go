package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"promising/internal/axiomatic"
	"promising/internal/core"
	"promising/internal/explore"
	"promising/internal/fuzz"
	"promising/internal/lang"
	"promising/internal/litmus"
)

// fuzzBench is the fuzz workload: each pass runs a fixed set of seeded
// fuzz.Run campaigns of a fixed iteration count (full profile, one worker,
// the default backends and mutation rate), in an order drawn from the
// workload seed, gated on zero findings, zero invalid candidates and the
// full iteration count.
//
// The campaign seeds are fixed rather than drawn from the workload seed:
// candidate cost is heavy-tailed (one generated program can keep the
// axiomatic trace enumeration busy for seconds), so campaigns drawn per
// seed differ by a factor of four in throughput and no bound could hold
// them. The workload seed picks the order and the traced split's stream.
type fuzzBench struct {
	cfg       config
	campaigns []int64
	iters     int
	sums      []*fuzz.Summary
}

// Campaign set, campaign length and traced-stream size.
var fuzzCampaignSeeds = []int64{1, 2, 3}

const (
	fuzzIterations  = 100
	fuzzStreamProgs = 200
	// fuzzCalEvery candidates a campaign takes a calibration sample.
	fuzzCalEvery = 10
	// fuzzInjectIterations bounds the campaign that must catch the
	// injected certification bug; it stops at the first finding.
	fuzzInjectIterations = 2000
)

func (b *fuzzBench) campaign(seed int64, iters int, progress func(fuzz.Progress)) fuzz.Config {
	cfg := fuzz.Config{
		Seed:          seed,
		Iterations:    iters,
		Workers:       1,
		Progress:      progress,
		ProgressEvery: 1,
	}
	if err := cfg.SetProfile("full"); err != nil {
		panic(err) // "full" is a built-in profile
	}
	return cfg
}

func (b *fuzzBench) setup(r *run) error {
	b.campaigns, b.iters = fuzzCampaignSeeds, fuzzIterations
	if b.cfg.tiny {
		b.campaigns, b.iters = fuzzCampaignSeeds[:1], 8
	}
	// Warm-up: a short campaign on a seed outside the set.
	end := r.span("fuzz.run", "warm-up")
	sum, err := fuzz.Run(context.Background(), b.campaign(1000, 5, nil))
	end()
	if err != nil {
		return err
	}
	r.check(!sum.Failed() && sum.Invalid == 0, "fuzz warm-up: %d findings, %d invalid", len(sum.Findings), sum.Invalid)
	return nil
}

func (b *fuzzBench) pass(r *run, n int) error {
	rng := rand.New(rand.NewSource(b.cfg.seed*7919 + int64(n)))
	for i, k := range rng.Perm(len(b.campaigns)) {
		// Start every campaign from a collected heap, so the campaign
		// order the seed draws does not change GC pacing.
		runtime.GC()
		if err := b.runCampaign(r, b.campaigns[k], b.cfg.inject && n == 0 && i == 0); err != nil {
			return err
		}
	}
	return nil
}

// runCampaign runs and gates one campaign, timing each candidate through
// the Progress callback (fired after every iteration with one worker).
// inject runs it with the certification bug of
// core.SetWeakCertLeakForTesting switched on, which the differential
// check must report as a finding.
func (b *fuzzBench) runCampaign(r *run, seed int64, inject bool) error {
	cfg := b.campaign(seed, b.iters, nil)
	if inject {
		defer core.SetWeakCertLeakForTesting(core.SetWeakCertLeakForTesting(true))
		cfg.Iterations, cfg.MaxFindings = fuzzInjectIterations, 1
	}
	// Progress runs on the campaign's one worker between candidates, so a
	// calibration sample taken there pauses the campaign and is left out
	// of the candidates' times.
	r.calibrate()
	last, done := cpuTime(), 0
	cfg.Progress = func(p fuzz.Progress) {
		if p.Iterations == done {
			return // the closing report, with no new candidate
		}
		done = p.Iterations
		r.op([2]int64{seed, int64(done)}, cpuTime()-last, false)
		if done%fuzzCalEvery == 0 {
			r.calibrate()
		}
		last = cpuTime()
	}
	end := r.span("fuzz.run", fmt.Sprintf("campaign-%d", seed))
	sum, err := fuzz.Run(context.Background(), cfg)
	end()
	if err != nil {
		return err
	}
	r.check(len(sum.Findings) == 0, "fuzz seed %d: %d findings", seed, len(sum.Findings))
	r.check(sum.Invalid == 0, "fuzz seed %d: %d invalid candidates", seed, sum.Invalid)
	r.check(sum.Iterations == cfg.Iterations, "fuzz seed %d: %d iterations, want %d", seed, sum.Iterations, cfg.Iterations)
	b.sums = append(b.sums, sum)
	return nil
}

func (b *fuzzBench) layers(r *run, m map[string]float64) {
	var p fuzz.Progress
	for _, s := range b.sums {
		p.Iterations += s.Iterations
		p.Dups += s.Dups
		p.SymmetrySkips += s.SymmetrySkips
		p.CacheHits += s.CacheHits
		p.Incomplete += s.Incomplete
		p.CorpusSize += s.CorpusSize
		p.Coverage += s.Coverage
	}
	n := float64(len(b.sums)) // per campaign
	m["fuzz.iterations"] = float64(p.Iterations) / n
	m["fuzz.dups"] = float64(p.Dups) / n
	m["fuzz.symmetry_skips"] = float64(p.SymmetrySkips) / n
	m["fuzz.cache_hits"] = float64(p.CacheHits) / n
	m["fuzz.incomplete"] = float64(p.Incomplete) / n
	m["fuzz.corpus_size"] = float64(p.CorpusSize) / n
	m["fuzz.coverage"] = float64(p.Coverage) / n
	m["fuzz.useful_share"] = float64(p.Iterations-p.Dups-p.SymmetrySkips) / float64(p.Iterations)
	b.stream(r, m)
}

// stream splits candidate cost by layer. A campaign's candidates cannot be
// replayed one by one from outside fuzz.Run, so the traced run drives
// litmus.Generate → Format → Parse → lang.Compile → each default backend
// over a seeded stream with the campaign's profile and sizes: the same
// distribution, not the identical candidates.
func (b *fuzzBench) stream(r *run, m map[string]float64) {
	progs := fuzzStreamProgs
	if b.cfg.tiny {
		progs = 6
	}
	r.note("fuzz per-layer split: %d programs from litmus.Generate with the campaign's profile and sizes — the same distribution as the campaign, not its identical candidates", progs)
	backends := []struct {
		span string
		run  litmus.Runner
	}{
		{"explore.promise_first", explore.PromiseFirst},
		{"explore.naive", explore.Naive},
		{"axiomatic.explore", axiomatic.Explore},
	}
	states := map[string]int{}
	r.root = r.tr.start("stream", "", -1)
	for i := 0; i < progs; i++ {
		req := fmt.Sprintf("program-%d", i)
		arch := []lang.Arch{lang.ARM, lang.RISCV}[i%2]
		end := r.span("litmus.generate", req)
		t := litmus.Generate(litmus.GenConfig{Seed: b.cfg.seed*7_777 + int64(i), Arch: arch, Profile: litmus.ProfileFull})
		end()
		end = r.span("litmus.format", req)
		src := litmus.Format(t)
		end()
		end = r.span("litmus.parse", req)
		t, err := litmus.Parse(src)
		end()
		if err != nil {
			r.check(false, "%s: round trip: %v", req, err)
			continue
		}
		end = r.span("lang.compile", req)
		cp, err := lang.Compile(t.Prog)
		end()
		if err != nil {
			r.check(false, "%s: compile: %v", req, err)
			continue
		}
		spec := t.Spec()
		var oracle *explore.Result
		for _, be := range backends {
			// The campaign's per-candidate budgets.
			opts := explore.DefaultOptions()
			opts.MaxStates = 500_000
			opts.Deadline = time.Now().Add(10 * time.Second)
			end = r.span(be.span, req)
			res := be.run(cp, spec, opts)
			end()
			states[be.span] += res.States
			if res.Aborted {
				r.note("%s: %s stopped at its budget; not compared", req, be.span)
				continue
			}
			if oracle == nil {
				oracle = res
				continue
			}
			r.check(explore.SameOutcomes(oracle, res), "%s: %s disagrees with promise-first", req, be.span)
		}
	}
	r.tr.end(r.root)
	ax := r.tr.named("axiomatic.explore")
	m["axiomatic.busy_s"] = sum(ax).Seconds()
	m["axiomatic.p50_ms"] = quantileMS(ax, 0.50)
	m["axiomatic.p99_ms"] = quantileMS(ax, 0.99)
	m["explore.promise_first.busy_s"] = sum(r.tr.named("explore.promise_first")).Seconds()
	m["explore.promise_first.states"] = float64(states["explore.promise_first"])
	m["explore.naive.busy_s"] = sum(r.tr.named("explore.naive")).Seconds()
	m["explore.naive.states"] = float64(states["explore.naive"])
	m["litmus.generate_us"] = meanUS(r.tr.named("litmus.generate"))
	m["litmus.format_us"] = meanUS(r.tr.named("litmus.format"))
	m["litmus.parse_us"] = meanUS(r.tr.named("litmus.parse"))
	m["lang.compile_us"] = meanUS(r.tr.named("lang.compile"))
}
