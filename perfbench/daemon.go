package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"promising"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/server"
	"promising/internal/workloads"
)

// daemonBench is the daemon workload: an in-process promised on a
// loopback listener, driven by a closed loop of nproc clients that each
// POST /v1/check and wait for the reply. A pass replays one seeded request
// sequence against a fresh server (no cache dir). Each (source, backend)
// is sent twice, as the repository's one repeating caller — the CI
// server smoke (.github/workflows/ci.yml) — sends its check: once missing
// the verdict cache, then once hitting it. A program's latency is that
// pair's two round trips added, so p50_ms and tail_ms weigh misses and
// hits one to one.
//
// The source pool is fixed (generator seeds 1..daemonGenerated plus the
// workload rows); the workload seed draws the sequence. Pools drawn per
// seed would put an occasional generated program that keeps the
// axiomatic backend busy for seconds into some runs and not others —
// that tail is the fuzz workload's subject, not the daemon's.
type daemonBench struct {
	cfg     config
	sources []daemonSource
	phases  [][]daemonReq // cold, then hits
	clients int

	// Latency by cache outcome over every pass, ms.
	mu        sync.Mutex
	cold, hit []float64
	// Server-side counters summed over passes.
	cacheHits, cacheMisses, statChecks, statHits int64
	passes                                       int
}

// daemonSource is one program the clients send, with its reference
// outcome lines from an in-process promising.Run.
type daemonSource struct {
	name     string
	bodies   map[string][]byte // JSON request bodies, by backend
	outcomes []string
}

type daemonReq struct {
	src     int
	backend string
}

// daemonGenerated is the pool's number of generated sources, each sent to
// both backends; the workload-scale sources go to promising only.
const daemonGenerated = 120

// daemonWorkloadRows are the workload-scale sources, sent as
// litmus.Format text.
var daemonWorkloadRows = []string{"TL-1", "DQ-111-1-1"}

func (b *daemonBench) setup(r *run) error {
	b.clients = runtime.NumCPU()
	gen, rows := daemonGenerated, daemonWorkloadRows
	if b.cfg.tiny {
		gen, rows = 6, []string{"SLA-1"}
	}
	var texts []string
	for i := 0; i < gen; i++ {
		req := fmt.Sprintf("gen-%d", i)
		arch := []lang.Arch{lang.ARM, lang.RISCV}[i%2]
		end := r.span("litmus.generate", req)
		t := litmus.Generate(litmus.GenConfig{Seed: int64(i + 1), Arch: arch, Profile: litmus.ProfileFull})
		end()
		end = r.span("litmus.format", req)
		texts = append(texts, litmus.Format(t))
		end()
	}
	for _, id := range rows {
		end := r.span("workloads.build", id)
		in, err := workloads.ParseID(lang.ARM, id)
		end()
		if err != nil {
			return err
		}
		end = r.span("litmus.format", id)
		texts = append(texts, litmus.Format(in.Test))
		end()
	}
	// Reference verdicts, computed in process exactly as a library caller
	// would: parse the request text, run the promise-first backend.
	for i, text := range texts {
		name := fmt.Sprintf("src-%d", i)
		end := r.span("litmus.parse", name)
		t, err := litmus.Parse(text)
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		end = r.span("lang.compile", name)
		_, err = lang.Compile(t.Prog)
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		end = r.span("explore.promise_first", name)
		v, err := promising.Run(t, promising.BackendPromising, promising.Options())
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		src := daemonSource{name: name, bodies: map[string][]byte{}}
		if out := litmus.FormatOutcomes(v.Spec, v.Result, t.Prog); out != "" {
			src.outcomes = strings.Split(out, "\n")
		}
		backends := []string{"promising", "axiomatic"}
		if i >= gen {
			backends = backends[:1]
		}
		for _, be := range backends {
			src.bodies[be], _ = json.Marshal(server.CheckRequest{TestSpec: server.TestSpec{Source: text}, Backend: be})
		}
		b.sources = append(b.sources, src)
	}
	if b.cfg.inject {
		b.sources[0].outcomes = append(slices.Clone(b.sources[0].outcomes), "0:r0=999")
	}
	b.phases = b.layout(gen)
	// Start a server and warm it with one request per backend.
	d, err := startDaemon(r, b.clients)
	if err != nil {
		return err
	}
	defer d.stop()
	for be := range b.sources[0].bodies {
		if _, err := b.send(r, d, daemonReq{0, be}); err != nil {
			return err
		}
	}
	b.cold, b.hit = nil, nil
	return nil
}

// layout lays out a pass: a cold phase sending every (source, backend)
// pair once — the workload-scale sources first, so no client is left
// alone on one at the end — then, after every cold reply is in, a hit
// phase sending each pair once more. The seed draws both orders; the
// multiset of requests, and so the work, is the same for every seed.
func (b *daemonBench) layout(gen int) [][]daemonReq {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var big, small []daemonReq
	for i, s := range b.sources {
		for _, be := range []string{"promising", "axiomatic"} {
			if _, ok := s.bodies[be]; !ok {
				continue
			}
			if i >= gen {
				big = append(big, daemonReq{i, be})
			} else {
				small = append(small, daemonReq{i, be})
			}
		}
	}
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	cold := append(big, small...)
	hits := slices.Clone(cold)
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	return [][]daemonReq{cold, hits}
}

// daemon is one running server and its loopback HTTP front.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	url    string
	client *http.Client
	served chan error
}

// startDaemon starts a fresh promised (Workers = clients, no cache dir)
// behind a handler that records a server span per request, parented to
// the client span named in the X-Bench-Span header.
func startDaemon(r *run, clients int) (*daemon, error) {
	srv, err := server.New(server.Config{Workers: clients, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	inner := srv.Handler()
	handler := inner
	if r.tr != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			parent, err := strconv.Atoi(req.Header.Get("X-Bench-Span"))
			if err != nil {
				parent = -1
			}
			name := "server.check"
			if req.URL.Path == "/v1/stats" {
				name = "server.stats"
			}
			id := r.tr.start(name, req.Header.Get("X-Bench-Req"), parent)
			inner.ServeHTTP(w, req)
			r.tr.end(id)
		})
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: handler},
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the server down and waits for both.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // a connection still open after 10s is dropped by Close below
	_ = d.http.Close()
	<-d.served
	d.srv.Close()
}

// do sends one request under a client span and returns the status, the
// body, the span's id and the round-trip latency.
func (d *daemon) do(r *run, method, path, req string, body []byte) (int, []byte, int, time.Duration, error) {
	hreq, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, -1, 0, err
	}
	id := r.tr.start("client."+strings.ToLower(method), req, r.root)
	hreq.Header.Set("X-Bench-Span", strconv.Itoa(id))
	hreq.Header.Set("X-Bench-Req", req)
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := d.client.Do(hreq)
	if err != nil {
		r.tr.end(id)
		return 0, nil, id, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	r.tr.end(id)
	return resp.StatusCode, raw, id, lat, err
}

// send posts one check, gates the reply — 200, complete, and the
// reference outcome lines — and returns its round-trip latency.
func (b *daemonBench) send(r *run, d *daemon, q daemonReq) (time.Duration, error) {
	src := b.sources[q.src]
	tag := src.name + "/" + q.backend
	status, raw, id, lat, err := d.do(r, http.MethodPost, "/v1/check", tag, src.bodies[q.backend])
	if err != nil {
		return 0, fmt.Errorf("%s: %w", tag, err)
	}
	var rep server.TestReport
	if status != http.StatusOK || json.Unmarshal(raw, &rep) != nil {
		r.check(false, "%s: HTTP %d: %.200s", tag, status, raw)
		return lat, nil
	}
	r.check(rep.Status == string(litmus.StatusPass), "%s: status %s %s", tag, rep.Status, rep.Error)
	r.check(slices.Equal(rep.Outcomes, src.outcomes), "%s: %d outcomes, reference has %d", tag, len(rep.Outcomes), len(src.outcomes))
	ms := float64(lat) / 1e6
	b.mu.Lock()
	if rep.Cached {
		b.hit = append(b.hit, ms)
		r.tr.setAttr(id, "hit")
	} else {
		b.cold = append(b.cold, ms)
		r.tr.setAttr(id, "miss")
	}
	b.mu.Unlock()
	return lat, nil
}

// stats reads the daemon's counters through GET /v1/stats.
func (d *daemon) stats(r *run) (map[string]int64, error) {
	status, raw, _, _, err := d.do(r, http.MethodGet, "/v1/stats", "stats", nil)
	if err != nil {
		return nil, err
	}
	var resp server.StatsResponse
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: HTTP %d", status)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return resp.Counters, nil
}

func (b *daemonBench) pass(r *run, n int) error {
	d, err := startDaemon(r, b.clients)
	if err != nil {
		return err
	}
	defer d.stop()
	before, err := d.stats(r)
	if err != nil {
		return err
	}
	// A program's latency is its miss and its hit added.
	lat := map[daemonReq]time.Duration{}
	for _, phase := range b.phases {
		if err := b.closedLoop(r, d, phase, lat); err != nil {
			return err
		}
	}
	for q, l := range lat {
		r.op(q, l, true)
	}
	after, err := d.stats(r)
	if err != nil {
		return err
	}
	cs := d.srv.Cache().Stats()
	b.cacheHits += cs.Hits
	b.cacheMisses += cs.Misses
	b.statChecks += after["promised_checks_total"] - before["promised_checks_total"]
	b.statHits += after["promised_cache_hits_total"] - before["promised_cache_hits_total"]
	b.passes++
	return nil
}

// closedLoop sends reqs from b.clients clients, each waiting for its reply
// before taking the next request, adds each latency to lat, and returns
// once all are answered.
func (b *daemonBench) closedLoop(r *run, d *daemon, reqs []daemonReq, lat map[daemonReq]time.Duration) error {
	var mu sync.Mutex
	var next atomic.Int64
	errs := make(chan error, b.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				l, err := b.send(r, d, reqs[i])
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				lat[reqs[i]] += l
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (b *daemonBench) layers(r *run, m map[string]float64) {
	var miss, hit, client []time.Duration
	spans := r.tr.closed()
	attr := map[int]string{}
	for _, s := range spans {
		if s.Name == "client.post" {
			attr[s.ID] = s.Attr
			client = append(client, s.dur())
		}
	}
	for _, s := range spans {
		if s.Name != "server.check" {
			continue
		}
		switch attr[s.Parent] {
		case "hit":
			hit = append(hit, s.dur())
		case "miss":
			miss = append(miss, s.dur())
		}
	}
	us := func(v []time.Duration) float64 { return quantileMS(v, 0.5) * 1e3 }
	m["server.handler_us.check_miss"] = us(miss)
	m["server.handler_us.check_hit"] = us(hit)
	m["server.handler_us.stats"] = us(r.tr.named("server.stats"))
	m["client.roundtrip_us"] = us(client)
	p := float64(b.passes)
	m["cache.hits"] = float64(b.cacheHits) / p
	m["cache.misses"] = float64(b.cacheMisses) / p
	m["cache.hit_rate"] = float64(b.cacheHits) / float64(b.cacheHits+b.cacheMisses)
	m["server.stats.checks"] = float64(b.statChecks) / p
	m["server.stats.cache_hits"] = float64(b.statHits) / p
	m["litmus.generate_us"] = meanUS(r.tr.named("litmus.generate"))
	m["litmus.format_us"] = meanUS(r.tr.named("litmus.format"))
	m["litmus.parse_us"] = meanUS(r.tr.named("litmus.parse"))
	m["lang.compile_us"] = meanUS(r.tr.named("lang.compile"))
	r.note("server.handler_us.* and client.roundtrip_us are medians per request; client self time is the round trip minus the handler")
}

// latencySplit adds the cold and cache-hit latency percentiles of an
// untraced measurement.
func (b *daemonBench) latencySplit(m map[string]float64) {
	cold, hit := slices.Clone(b.cold), slices.Clone(b.hit)
	slices.Sort(cold)
	slices.Sort(hit)
	m["daemon.cold_p50_ms"] = quantile(cold, 0.50)
	m["daemon.cold_p99_ms"] = quantile(cold, 0.99)
	m["daemon.hit_p50_ms"] = quantile(hit, 0.50)
	m["daemon.hit_p99_ms"] = quantile(hit, 0.99)
}
