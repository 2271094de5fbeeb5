package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serveShortHeaderTimeout serves s on a loopback listener through the
// daemon's own http.Server, with its header timeout shortened to d so the
// test runs in well under a second per timeout.
func serveShortHeaderTimeout(t *testing.T, s *Server, d time.Duration) (string, *Client) {
	t.Helper()
	hs := s.httpServer()
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("daemon server timeouts = %v/%v; want %v/%v", hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("daemon server sets ReadTimeout %v / WriteTimeout %v; either cuts event streams", hs.ReadTimeout, hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = d
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close(); s.Close() })
	base := "http://" + ln.Addr().String()
	return ln.Addr().String(), NewClient(base, http.DefaultClient)
}

// TestSlowHeaderClientDisconnected: a client that sends half a request
// header and stalls is disconnected once the header timeout passes.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 200 * time.Millisecond
	addr, _ := serveShortHeaderTimeout(t, s, timeout)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: promised\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(20 * timeout))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v with a half-sent header", time.Since(start))
	}
	if n != 0 {
		t.Errorf("server answered %d bytes to a half-sent header", n)
	}
	if el := time.Since(start); el < timeout {
		t.Errorf("disconnected after %v, before the %v header timeout", el, timeout)
	}
}

// TestEventStreamOutlivesHeaderTimeout: once its headers are in, an SSE
// subscription stays open well past the header timeout and still delivers
// the job's terminal summary.
func TestEventStreamOutlivesHeaderTimeout(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxTimeout: time.Hour, DefaultTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 100 * time.Millisecond
	addr, c := serveShortHeaderTimeout(t, s, timeout)
	ctx := context.Background()
	br, err := c.Batch(ctx, BatchRequest{Tests: []TestSpec{{Source: slowSrc}}, Backends: []string{"naive"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/v1/jobs/" + br.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	time.Sleep(5 * timeout)
	if _, err := c.CancelJob(ctx, br.JobID); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"kind":"`+EventSummary+`"`) {
			return
		}
	}
	t.Fatalf("event stream ended without a summary: %v", sc.Err())
}
